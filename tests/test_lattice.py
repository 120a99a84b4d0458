"""Lattice enumeration, colorset coordinates, canonical recoloring."""

from collections import Counter

import pytest

from bondlat import (
    Arc,
    Bond,
    BondSystem,
    CapExceededError,
    CoverDigraph,
    FinitePoset,
    GraphError,
    Multigraph,
    NotLatticeError,
    NotUldError,
    PosetError,
    canonical_uld_coloring,
    certify_uld_cover,
    color_tallies,
    encode_potentials,
    enumerate_lattice,
    meet_irreducible_indices,
    minimal_representation,
)
from bondlat.checker import ColoredDigraph
from bondlat.lattice import TallyError

from util import m3_poset, star_system, tension_bonds, tri_system, two_source_poset

TRI_ARCS = ("a1", "a2", "a3")


def tuples(cd, arc_order):
    return [x.as_tuple(arc_order) for x in cd.elements]


class TestEnumerate:
    def test_triangle_chain(self):
        cd = enumerate_lattice(tri_system())
        assert tuples(cd, TRI_ARCS) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert cd.covers == ((0, 1, 2), (1, 2, 3))

    def test_star_diamond(self):
        cd = enumerate_lattice(star_system())
        assert tuples(cd, ("a", "b")) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert cd.covers == ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2))

    def test_single_vertex(self):
        s = BondSystem(Multigraph([5], []), {}, {}, {}, 5)
        cd = enumerate_lattice(s)
        assert cd.elements == (Bond({}),)
        assert cd.covers == ()

    def test_matches_brute_force(self):
        for s in (tri_system(), star_system()):
            order = [a.id for a in s.graph.arcs]
            cd = enumerate_lattice(s)
            assert sorted(tuples(cd, order)) == sorted(
                x.as_tuple(order) for x in tension_bonds(s)
            )

    def test_cap(self):
        with pytest.raises(CapExceededError) as exc:
            enumerate_lattice(star_system(), cap=2)
        assert exc.value.cap == 2 and exc.value.explored > 2

    def test_cap_on_grid_5x5_counts_through_rank_12(self):
        # potentials on a 5x5 grid, arcs right and down, differences in
        # [-1, 1]: ranks 0-11 hold 853 elements and rank 12 holds 462 more
        arcs = [Arc(f"h{v}", v, v + 1) for v in range(25) if v % 5 < 4]
        arcs += [Arc(f"v{v}", v, v + 5) for v in range(20)]
        g = Multigraph(range(25), arcs)
        system = encode_potentials(g, {a.id: -1 for a in arcs}, {a.id: 1 for a in arcs}, 0).system
        with pytest.raises(CapExceededError) as exc:
            enumerate_lattice(system, cap=1000)
        assert (exc.value.explored, exc.value.cap) == (1315, 1000)

    def test_rejects_rigid_arcs(self):
        with pytest.raises(GraphError):
            enumerate_lattice(tri_system(delta=0))

    def test_covers_are_the_transitive_reduction(self):
        for s in (tri_system(), star_system()):
            cd = enumerate_lattice(s)
            assert cd.to_colored_digraph().closure.covers() == [c[:2] for c in cd.covers]

    def test_certified_uld_both_examples(self):
        for s in (tri_system(), star_system()):
            verdict = certify_uld_cover(enumerate_lattice(s).to_colored_digraph())
            assert verdict.status == "uld"


class TestCoverDigraph:
    def test_validation(self):
        with pytest.raises(PosetError):
            CoverDigraph([Bond({})], [(0, 1, "c")])
        with pytest.raises(PosetError):
            CoverDigraph([Bond({}), Bond({})], [(0, 0, "c")])

    def test_first_bad_cover_is_named(self):
        with pytest.raises(PosetError, match=r"^cover \(1, 3\) references elements out of range$"):
            CoverDigraph("pqr", [(0, 1, "c"), (1, 3, "c"), (2, 2, "c"), (-1, 0, "c")])
        with pytest.raises(PosetError, match=r"^cover \(-1, 0\) references elements out of range$"):
            CoverDigraph("pqr", [(0, 1, "c"), (-1, 0, "c"), (1, 3, "c")])
        with pytest.raises(PosetError, match=r"^cover \(2, 2\) is a self-loop$"):
            CoverDigraph("pqr", [(0, 1, "c"), (2, 2, "c"), (1, 3, "c")])

    def test_unsorted_covers_are_sorted_by_ends_then_color_key(self):
        covers = [(1, 2, "b"), (0, 2, 7), (0, 1, "a"), (0, 2, "x"), (0, 2, 3)]
        cd = CoverDigraph("pqr", [list(c) for c in covers])
        assert cd.covers == ((0, 1, "a"), (0, 2, 3), (0, 2, 7), (0, 2, "x"), (1, 2, "b"))
        assert CoverDigraph("pqr", cd.covers).covers == cd.covers

    def test_endpoints(self):
        cd = enumerate_lattice(star_system())
        colored = cd.to_colored_digraph()
        assert colored.end(1) == 0
        assert colored.end(0) == 3
        assert sorted({c for _, _, c in cd.covers}) == [1, 2]

    def test_source_must_be_unique(self):
        cd = CoverDigraph(["p", "q"], [])
        with pytest.raises(PosetError):
            cd.to_colored_digraph().end(1)

    def test_every_walk_reads_one_colored_digraph(self, monkeypatch):
        calls = []
        real = ColoredDigraph.from_triples

        def counting(n, triples):
            calls.append(n)
            return real(n, triples)

        monkeypatch.setattr(ColoredDigraph, "from_triples", counting)
        cd = enumerate_lattice(star_system())
        colored = cd.to_colored_digraph()
        assert cd.to_colored_digraph() is colored
        assert (colored.end(1), colored.end(0), meet_irreducible_indices(cd)) == (0, 3, [1, 2])
        assert color_tallies(cd)[3] == Counter({1: 1, 2: 1})
        assert minimal_representation(cd, 0) == {1, 2}
        assert certify_uld_cover(cd.to_colored_digraph()).ok
        assert calls == [4]


class TestColorTallies:
    def test_triangle(self):
        cd = enumerate_lattice(tri_system())
        assert color_tallies(cd) == [
            Counter({}),
            Counter({2: 1}),
            Counter({2: 1, 3: 1}),
        ]

    def test_star(self):
        cd = enumerate_lattice(star_system())
        tallies = color_tallies(cd)
        assert tallies[0] == Counter({})
        assert tallies[3] == Counter({1: 1, 2: 1})

    def test_zero_entries_do_not_matter(self):
        assert Counter({1: 0}) == Counter({})
        assert Counter({1: 1, 2: 0}) == Counter({1: 1})

    def test_dominance_and_join(self):
        a = Counter({1: 2})
        b = Counter({1: 1, 2: 1})
        assert not a >= b and not b >= a
        assert a | b == Counter({1: 2, 2: 1})
        assert a | b >= a and a | b >= b

    def test_order_embeds_into_dominance(self):
        for s in (tri_system(), star_system()):
            cd = enumerate_lattice(s)
            tallies = color_tallies(cd)
            poset = cd.to_colored_digraph().closure
            for i in range(cd.n):
                for j in range(cd.n):
                    assert poset.leq(i, j) == (tallies[j] >= tallies[i])

    def test_tallies_are_join_closed(self):
        cd = enumerate_lattice(star_system())
        tallies = color_tallies(cd)
        poset = cd.to_colored_digraph().closure
        for i in range(cd.n):
            for j in range(cd.n):
                joined = tallies[i] | tallies[j]
                assert joined == tallies[poset.join(i, j)]

    def test_rank_is_total_count(self):
        for s in (tri_system(), star_system()):
            cd = enumerate_lattice(s)
            tallies = color_tallies(cd)
            for lo, hi, _ in cd.covers:
                assert tallies[hi].total() == tallies[lo].total() + 1

    def test_path_dependent_coloring_rejected(self):
        cd = CoverDigraph(
            "wxyz", [(0, 1, "p"), (0, 2, "q"), (1, 3, "q"), (2, 3, "q")]
        )
        with pytest.raises(TallyError):
            color_tallies(cd)

    def test_cyclic_cover_digraph_rejected(self):
        cd = CoverDigraph("abc", [(0, 1, "p"), (1, 2, "q"), (2, 1, "r")])
        with pytest.raises(PosetError):
            color_tallies(cd)


class TestRepresentations:
    def test_meet_irreducibles(self):
        assert meet_irreducible_indices(enumerate_lattice(tri_system())) == [0, 1]
        assert meet_irreducible_indices(enumerate_lattice(star_system())) == [1, 2]

    def test_triangle_chain_representations(self):
        cd = enumerate_lattice(tri_system())
        assert minimal_representation(cd, 0) == {0}
        assert minimal_representation(cd, 1) == {1}
        assert minimal_representation(cd, 2) == frozenset()  # the sink

    def test_star_bottom_needs_both(self):
        cd = enumerate_lattice(star_system())
        assert minimal_representation(cd, 0) == {1, 2}

    def test_one_closure_poset_for_every_representation(self, monkeypatch):
        built = []
        real_init = FinitePoset.__init__

        def counting(self, *args):
            built.append(self)
            real_init(self, *args)

        monkeypatch.setattr(FinitePoset, "__init__", counting)
        cd = enumerate_lattice(star_system())
        reps = [minimal_representation(cd, i) for i in range(cd.n)]
        assert reps == [{1, 2}, {1}, {2}, frozenset()]
        assert len(built) == 1 and cd.to_colored_digraph().closure is built[0]

    def test_representation_meets_back(self):
        for s in (tri_system(), star_system()):
            cd = enumerate_lattice(s)
            poset = cd.to_colored_digraph().closure
            for i in range(cd.n):
                rep = minimal_representation(cd, i)
                irr = set(meet_irreducible_indices(cd))
                assert rep <= irr
                if rep:
                    assert poset.meet_of_set(rep) == i


class TestCanonicalColoring:
    def test_chain(self):
        cd = canonical_uld_coloring(("m", "mid", "top"), [(0, 1), (1, 2)])
        assert cd.covers == ((0, 1, 0), (1, 2, 1))

    def test_two_elements(self):
        cd = canonical_uld_coloring(("lo", "hi"), [(0, 1)])
        assert cd.covers == ((0, 1, 0),)  # colored by the bottom itself

    def test_diamond_recoloring_is_certified(self):
        base = enumerate_lattice(star_system())
        pairs = [c[:2] for c in base.covers]
        recolored = canonical_uld_coloring(base.elements, pairs)
        assert [c[:2] for c in recolored.covers] == pairs
        assert certify_uld_cover(recolored.to_colored_digraph()).status == "uld"

    def test_m3_rejected(self):
        p = m3_poset()
        with pytest.raises(NotUldError) as exc:
            canonical_uld_coloring(p.labels, p.covers())
        x, rep_a, rep_b = exc.value.certificate
        assert x == 0 and rep_a != rep_b

    def test_non_lattice_rejected(self):
        p = two_source_poset()
        with pytest.raises(NotLatticeError):
            canonical_uld_coloring(p.labels, p.covers())

    def test_shortcut_arc_rejected(self):
        with pytest.raises(PosetError) as exc:
            canonical_uld_coloring("abc", [(0, 1), (1, 2), (0, 2)])
        assert "shortcut" in str(exc.value)
