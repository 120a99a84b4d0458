"""Encoders: orientations, flows, out-degree orientations, potentials."""

import pytest

from bondlat import (
    Arc,
    ArcEnd,
    Bond,
    AlphaSpec,
    ExcessImbalanceError,
    FlowSpec,
    GraphError,
    InfeasibleSystemError,
    Multigraph,
    NonPlanarError,
    Orientation,
    ParityError,
    PlanarEmbedding,
    encode_alpha_orientations,
    encode_c_orientations,
    encode_flows,
    encode_potentials,
    enumerate_lattice,
    find_initial_bond,
)
from bondlat.graph import HEAD, TAIL

from util import tension_bonds, tri_embedding, tri_graph

TRI_ARCS = ("a1", "a2", "a3")


class TestOrientation:
    def test_flip_validation(self):
        with pytest.raises(GraphError):
            Orientation(tri_graph(), {"a1": 2, "a2": 0, "a3": 0})
        with pytest.raises(GraphError):
            Orientation(tri_graph(), {"a1": 0})

    def test_as_multigraph_reverses_flipped_arcs(self):
        o = Orientation(tri_graph(), {"a1": 1, "a2": 0, "a3": 0})
        flipped = o.as_multigraph().arc("a1")
        assert (flipped.tail, flipped.head) == (2, 1)

    def test_out_degrees(self):
        o = Orientation(tri_graph(), {"a1": 0, "a2": 0, "a3": 0})
        assert o.out_degrees() == {1: 1, 2: 1, 3: 1}


class TestCOrientations:
    def test_triangle_count(self):
        family = encode_c_orientations(tri_graph(), {"a3": 1})
        assert len(tension_bonds(family.system)) == 3

    def test_bonds_are_single_flips(self):
        family = encode_c_orientations(tri_graph(), {"a3": 1})
        flips = {b.as_tuple(TRI_ARCS) for b in tension_bonds(family.system)}
        assert flips == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_decoded_orientations_hit_the_target(self):
        family = encode_c_orientations(tri_graph(), {"a3": 1})
        cycle_signs = {"a1": 1, "a2": 1, "a3": 1}  # fundamental cycle of a3
        for b in tension_bonds(family.system):
            o = family.decode(b)
            count = sum(s * (1 - 2 * o.flips[a]) for a, s in cycle_signs.items())
            assert count == 1

    def test_round_trip(self):
        family = encode_c_orientations(tri_graph(), {"a3": 1})
        for b in tension_bonds(family.system):
            assert family.encode(family.decode(b)) == b

    def test_encode_rejects_foreign_base(self):
        family = encode_c_orientations(tri_graph(), {"a3": 1})
        other = Multigraph([1, 2], [Arc("x", 1, 2)])
        with pytest.raises(GraphError):
            family.encode(Orientation(other, {"x": 0}))

    def test_parity(self):
        with pytest.raises(ParityError) as exc:
            encode_c_orientations(tri_graph(), {"a3": 0})
        assert exc.value.defining_arc == "a3"
        assert exc.value.base_count == 3 and exc.value.target == 0

    def test_target_bookkeeping(self):
        with pytest.raises(GraphError):
            encode_c_orientations(tri_graph(), {})
        with pytest.raises(GraphError):
            encode_c_orientations(tri_graph(), {"a3": 1, "a1": 1})

    def test_unreachable_target_is_infeasible_not_invalid(self):
        family = encode_c_orientations(tri_graph(), {"a3": 5})
        with pytest.raises(InfeasibleSystemError):
            find_initial_bond(family.system)


class TestFlows:
    def unit_spec(self, excess=None):
        return FlowSpec(
            tri_embedding(),
            {a: 0 for a in TRI_ARCS},
            {a: 1 for a in TRI_ARCS},
            excess or {},
        )

    def test_circulations_of_the_triangle(self):
        family = encode_flows(self.unit_spec())
        flows = [family.decode(b) for b in tension_bonds(family.system)]
        assert sorted(tuple(f[a] for a in TRI_ARCS) for f in flows) == [
            (0, 0, 0),
            (1, 1, 1),
        ]

    def test_decoded_flows_conserve_excess(self):
        family = encode_flows(self.unit_spec({1: -1, 2: 1}))
        g = tri_graph()
        for b in tension_bonds(family.system):
            flow = family.decode(b)
            for v in g.vertices:
                inflow = sum(flow[a.id] for a in g.arcs if a.head == v)
                outflow = sum(flow[a.id] for a in g.out_arcs(v))
                assert inflow - outflow == {1: -1, 2: 1}.get(v, 0)
            for a in TRI_ARCS:
                assert 0 <= flow[a] <= 1

    def test_windows_must_be_integers(self):
        # a window [0.9, 1.9] is not truncated to [0, 1]
        spec = FlowSpec(tri_embedding(), dict.fromkeys(TRI_ARCS, 0.9), dict.fromkeys(TRI_ARCS, 1.9), {})
        with pytest.raises(GraphError, match="lower value for arc 'a1' must be an integer, got 0.9"):
            encode_flows(spec)
        spec = FlowSpec(tri_embedding(), dict.fromkeys(TRI_ARCS, 0), dict.fromkeys(TRI_ARCS, "1"), {})
        with pytest.raises(GraphError, match="upper value for arc 'a1' must be an integer, got '1'"):
            encode_flows(spec)

    def test_excess_must_be_integers(self):
        # True would count as 1 and balance the -1
        with pytest.raises(GraphError, match="excess of vertex 2 must be an integer, got True"):
            encode_flows(self.unit_spec({1: -1, 2: True}))

    def test_forced_flow_is_unique(self):
        family = encode_flows(self.unit_spec({1: -1, 2: 1}))
        bonds = tension_bonds(family.system)
        assert len(bonds) == 1
        assert family.decode(bonds[0]) == {"a1": 1, "a2": 0, "a3": 0}

    def test_encode_round_trip(self):
        family = encode_flows(self.unit_spec())
        for b in tension_bonds(family.system):
            assert family.encode(family.decode(b)) == b

    def test_stray_excess_key_is_named(self):
        # a stray key is named before the balance is summed, which would
        # read {9: 1, 10: -1} as balanced and {1: -1, 9: 1} as -1
        for excess in ({9: 1, 10: -1}, {1: -1, 9: 1}, {"x": 0, 10: 0, 9: 0}):
            with pytest.raises(GraphError, match=r"^excess given for 9, which is not a vertex$"):
                encode_flows(self.unit_spec(excess))

    def test_excess_must_balance(self):
        with pytest.raises(ExcessImbalanceError) as exc:
            encode_flows(self.unit_spec({1: 1}))
        assert exc.value.total == 1

    def test_unbounded_face_must_exist(self):
        with pytest.raises(GraphError):
            encode_flows(self.unit_spec(), unbounded_face=5)
        family = encode_flows(self.unit_spec(), unbounded_face=1)
        assert family.system.forbidden == 1

    def test_nonplanar_embedding_rejected(self):
        g = Multigraph(
            [1, 2, 3, 4],
            [
                Arc("a", 1, 2),
                Arc("b", 1, 3),
                Arc("c", 1, 4),
                Arc("d", 2, 3),
                Arc("e", 2, 4),
                Arc("f", 3, 4),
            ],
        )
        rotation = {
            1: (ArcEnd("a", TAIL), ArcEnd("b", TAIL), ArcEnd("c", TAIL)),
            2: (ArcEnd("a", HEAD), ArcEnd("d", TAIL), ArcEnd("e", TAIL)),
            3: (ArcEnd("d", HEAD), ArcEnd("b", HEAD), ArcEnd("f", TAIL)),
            4: (ArcEnd("f", HEAD), ArcEnd("e", HEAD), ArcEnd("c", HEAD)),
        }
        spec = FlowSpec(
            PlanarEmbedding(g, rotation),
            {a.id: 0 for a in g.arcs},
            {a.id: 1 for a in g.arcs},
            {},
        )
        with pytest.raises(NonPlanarError):
            encode_flows(spec)

    def test_missing_capacity_entry(self):
        spec = FlowSpec(tri_embedding(), {"a1": 0}, {a: 1 for a in TRI_ARCS}, {})
        with pytest.raises(GraphError):
            encode_flows(spec)


class TestAlphaOrientations:
    def test_all_out_degrees_one(self):
        family = encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: 1, 2: 1, 3: 1}))
        bonds = tension_bonds(family.system)
        assert len(bonds) == 2
        oriented = [family.decode(b) for b in bonds]
        for o in oriented:
            assert o.out_degrees() == {1: 1, 2: 1, 3: 1}
        # the two cyclic orientations of the triangle differ on every edge
        first, second = (o.as_multigraph() for o in oriented)
        assert all(first.arc(a).tail == second.arc(a).head for a in TRI_ARCS)

    def test_reference_orientation_runs_small_to_large(self):
        family = encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: 1, 2: 1, 3: 1}))
        a3 = family.reference.arc("a3")
        assert (a3.tail, a3.head) == (1, 3)

    def test_sink_orientation_is_unique(self):
        family = encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: 2, 2: 1, 3: 0}))
        bonds = tension_bonds(family.system)
        assert len(bonds) == 1
        assert family.decode(bonds[0]).out_degrees() == {1: 2, 2: 1, 3: 0}

    def test_round_trip(self):
        family = encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: 1, 2: 1, 3: 1}))
        for b in tension_bonds(family.system):
            assert family.encode(family.decode(b)) == b

    def test_degree_sum_must_match_edge_count(self):
        with pytest.raises(GraphError) as exc:
            encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: 0, 2: 0, 3: 0}))
        assert "sum to 0" in str(exc.value)

    def test_missing_degree(self):
        with pytest.raises(GraphError):
            encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: 1, 2: 2}))

    def test_stray_degree_key_is_named(self):
        spec = AlphaSpec(tri_embedding(), {1: 1, 2: 1, 3: 1, "z": 0, 9: 0})
        with pytest.raises(GraphError, match=r"^out-degree given for 9, which is not a vertex$"):
            encode_alpha_orientations(spec)

    def test_degrees_must_be_integers(self):
        # the string "2" is not read as 2, which would make a valid spec
        with pytest.raises(GraphError, match="out-degree of vertex 1 must be an integer, got '2'"):
            encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: "2", 2: 1, 3: 0}))


class TestPotentials:
    def family(self, lo=0, hi=2):
        g = Multigraph([1, 2, 3], [Arc("a", 1, 2), Arc("b", 2, 3)])
        windows_lo = {"a": lo, "b": lo}
        windows_hi = {"a": hi, "b": hi}
        return encode_potentials(g, windows_lo, windows_hi, 1)

    def test_bond_count_is_window_product(self):
        family = self.family()
        assert len(tension_bonds(family.system)) == 9

    def test_decode_gives_path_sums(self):
        family = self.family()
        p = family.decode(Bond({"a": 2, "b": 1}))
        assert p == {1: 0, 2: 2, 3: 3}

    def test_decode_matches_arc_differences(self):
        family = self.family()
        for b in tension_bonds(family.system):
            p = family.decode(b)
            for arc in family.system.graph.arcs:
                assert p[arc.head] - p[arc.tail] == b.value(arc.id)

    def test_encode_requires_zero_anchor(self):
        family = self.family()
        with pytest.raises(GraphError):
            family.encode({1: 1, 2: 1, 3: 1})

    def test_round_trip(self):
        family = self.family()
        for b in tension_bonds(family.system):
            assert family.encode(family.decode(b)) == b

    def test_zero_windows_force_the_zero_potential(self):
        family = self.family(0, 0)
        bonds = tension_bonds(family.system)
        assert len(bonds) == 1
        assert family.decode(bonds[0]) == {1: 0, 2: 0, 3: 0}

    def test_inconsistent_labeling_rejected(self):
        g = tri_graph()
        family = encode_potentials(
            g, {a: -1 for a in TRI_ARCS}, {a: 1 for a in TRI_ARCS}, 1
        )
        with pytest.raises(GraphError):
            family.decode(Bond({"a1": 1, "a2": 0, "a3": 0}))

    def test_bond_order_is_anti_isomorphic_to_dominance(self):
        # pushing a vertex lowers its potential, so leq reverses dominance
        family = self.family()
        system = family.system
        bonds = tension_bonds(system)
        potentials = {id(b): family.decode(b) for b in bonds}
        for x in bonds:
            px = potentials[id(x)]
            for y in bonds:
                py = potentials[id(y)]
                dominates = all(px[v] >= py[v] for v in system.graph.vertices)
                assert system.leq(x, y) == dominates

    def test_meet_is_componentwise_max(self):
        family = self.family()
        system = family.system
        bonds = tension_bonds(system)
        for x in bonds:
            for y in bonds:
                px, py = family.decode(x), family.decode(y)
                expected = {v: max(px[v], py[v]) for v in px}
                assert family.decode(system.meet(x, y)) == expected

    def test_minimum_bond_has_the_top_potential(self):
        family = self.family()
        m = family.system.minimum_bond()
        assert family.decode(m) == {1: 0, 2: 2, 3: 4}


def two_cycle_family(anchor):
    """Potentials on the cycles a b c and b d e, which share arc b."""
    g = Multigraph(
        [1, 2, 3, 4],
        [Arc("a", 1, 2), Arc("b", 2, 3), Arc("c", 3, 1), Arc("d", 3, 4), Arc("e", 4, 2)],
    )
    return encode_potentials(g, dict.fromkeys("abcde", -5), dict.fromkeys("abcde", 5), anchor)


@pytest.mark.parametrize("anchor, arc", [(1, "b"), (2, "d"), (3, "e"), (4, "b")])
def test_decode_and_push_counts_name_the_first_arc_of_one_search(anchor, arc):
    # both cycles break the labeling; the arc named is the first one the
    # depth-first search from the anchor finds with both ends reached
    family = two_cycle_family(anchor)
    broken = Bond(dict.fromkeys("abcde", 1))
    with pytest.raises(GraphError) as exc:
        family.decode(broken)
    assert str(exc.value) == f"labeling has nonzero flow-difference around a cycle through {arc!r}"
    with pytest.raises(GraphError) as exc:
        family.system.push_counts(broken)
    assert str(exc.value) == (
        f"labeling is not a bond of this system: arc {arc!r} disagrees with its push-count difference"
    )


def test_decode_from_an_anchor_that_is_not_the_smallest_vertex():
    family = two_cycle_family(3)
    potential = family.decode(Bond({"a": 2, "b": -1, "c": -1, "d": 3, "e": -2}))
    assert list(potential.items()) == [(3, 0), (2, 1), (1, -1), (4, 3)]


def test_c_orientation_lattice_composes_with_enumerate():
    family = encode_c_orientations(tri_graph(), {"a3": 1})
    reduced, contraction = family.system.reduce()
    cd = enumerate_lattice(reduced)
    assert cd.n == 3
    decoded = [family.decode(contraction.expand(b)) for b in cd.elements]
    assert len({tuple(sorted(o.flips.items())) for o in decoded}) == 3
