"""Multigraph foundation: trees, cycles, cuts, embeddings, duals."""

import pytest

from bondlat import (
    Arc,
    ArcEnd,
    CycleVector,
    GraphError,
    Multigraph,
    NonPlanarError,
    PlanarEmbedding,
    faces,
    fundamental_cycles,
    planar_dual,
    spanning_tree,
)
from bondlat.graph import HEAD, TAIL, id_key

from util import cut_vector, tri_embedding, tri_graph


def test_multigraph_validates_endpoints_and_ids():
    with pytest.raises(GraphError):
        Multigraph([1], [Arc("a", 1, 2)])
    with pytest.raises(GraphError):
        Multigraph([1, 2], [Arc("a", 1, 2), Arc("a", 2, 1)])


def test_multigraph_sorts_vertices_and_arc_lists():
    g = Multigraph([3, 1, 2], [Arc("b", 2, 1), Arc("a", 1, 2)])
    assert g.vertices == (1, 2, 3)
    assert [a.id for a in g.out_arcs(1)] == ["a"]
    assert [a.id for a in g.arcs if a.head == 1] == ["b"]
    assert [a.id for a in g.incident_arcs(1)] == ["a", "b"]


def test_id_key_orders_integers_before_strings():
    assert sorted([10, "a", 2, "b"], key=id_key) == [2, 10, "a", "b"]


def test_loop_incident_once():
    g = Multigraph([1], [Arc("l", 1, 1)])
    assert [a.id for a in g.incident_arcs(1)] == ["l"]
    assert g.out_degree(1) == 1 and sum(a.head == 1 for a in g.arcs) == 1


class TestSpanningTree:
    def test_triangle(self):
        assert spanning_tree(tri_graph()) == {"a1", "a2"}

    def test_single_vertex(self):
        assert spanning_tree(Multigraph([1], [])) == set()

    def test_path_graph_is_its_own_tree(self):
        g = Multigraph([1, 2, 3], [Arc("a", 1, 2), Arc("b", 2, 3)])
        assert spanning_tree(g) == {"a", "b"}

    def test_disconnected_names_two_vertices(self):
        g = Multigraph([1, 2], [])
        with pytest.raises(GraphError) as exc:
            spanning_tree(g)
        assert "1" in str(exc.value) and "2" in str(exc.value)

    def test_prefers_smaller_arc_ids(self):
        # both a3 and a1 could finish the tree; the smaller id wins
        g = Multigraph([1, 2, 3], [Arc(1, 1, 2), Arc(2, 2, 3), Arc(3, 1, 3)])
        assert spanning_tree(g) == {1, 2}


class TestFundamentalCycles:
    def test_triangle(self):
        g = tri_graph()
        cycles = fundamental_cycles(g, spanning_tree(g))
        assert len(cycles) == 1
        assert cycles[0].signs == {"a3": 1, "a1": 1, "a2": 1}

    def test_tree_has_no_cycles(self):
        g = Multigraph([1, 2], [Arc("a", 1, 2)])
        assert fundamental_cycles(g, {"a"}) == []

    def test_parallel_arcs(self):
        g = Multigraph([1, 2], [Arc("a", 1, 2), Arc("b", 1, 2)])
        cycles = fundamental_cycles(g, {"a"})
        assert len(cycles) == 1
        assert cycles[0].signs == {"b": 1, "a": -1}

    def test_count_matches_cycle_space_dimension(self):
        g = Multigraph(
            [1, 2, 3, 4],
            [Arc(i, t, h) for i, (t, h) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)])],
        )
        cycles = fundamental_cycles(g, spanning_tree(g))
        assert len(cycles) == len(g.arcs) - len(g.vertices) + 1

    def test_defining_arc_carries_plus_one(self):
        g = Multigraph([1, 2, 3], [Arc("x", 2, 1), Arc("y", 3, 2), Arc("z", 1, 3)])
        tree = spanning_tree(g)
        for cycle in fundamental_cycles(g, tree):
            defining = [a for a in cycle.support() if a not in tree]
            assert len(defining) == 1
            assert cycle.sign(defining[0]) == 1


class TestVertexCut:
    """The tests' cut-vector oracle on hand-sized cuts."""

    def test_triangle_single_vertex(self):
        assert cut_vector(tri_graph().arcs, {2}) == (-1, 1, 0)

    def test_empty_inside(self):
        assert cut_vector(tri_graph().arcs, set()) == (0, 0, 0)

    def test_loop_crosses_nothing(self):
        g = Multigraph([1, 2], [Arc("l", 1, 1), Arc("a", 1, 2)])
        assert cut_vector(g.arcs, {1}) == (0, 1)


def test_cut_cycle_orthogonality():
    g = Multigraph(
        [1, 2, 3, 4],
        [Arc(i, t, h) for i, (t, h) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (4, 2)])],
    )
    cycles = fundamental_cycles(g, spanning_tree(g))
    from itertools import combinations

    subsets = [set(c) for r in range(5) for c in combinations(g.vertices, r)]
    for inside in subsets:
        sigma = dict(zip((a.id for a in g.arcs), cut_vector(g.arcs, inside)))
        for cycle in cycles:
            assert sum(s * sigma[a] for a, s in cycle.signs.items()) == 0


class TestFaces:
    def test_triangle_two_faces(self):
        walks = faces(tri_embedding())
        assert len(walks) == 2
        assert sorted(len(w) for w in walks) == [3, 3]

    def test_single_loop_two_faces(self):
        g = Multigraph([1], [Arc("l", 1, 1)])
        embedding = PlanarEmbedding(g, {1: (ArcEnd("l", TAIL), ArcEnd("l", HEAD))})
        assert len(faces(embedding)) == 2

    def test_single_arc_one_face_of_length_two(self):
        g = Multigraph([1, 2], [Arc("a", 1, 2)])
        embedding = PlanarEmbedding(g, {1: (ArcEnd("a", TAIL),), 2: (ArcEnd("a", HEAD),)})
        walks = faces(embedding)
        assert len(walks) == 1
        assert len(walks[0]) == 2

    def test_deterministic(self):
        assert faces(tri_embedding()) == faces(tri_embedding())

    def test_nonplanar_rotation_rejected(self):
        # K4 with one rotation flipped: face count off, genus 1 reported
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
        with pytest.raises(NonPlanarError) as exc:
            faces(PlanarEmbedding(g, rotation))
        assert exc.value.genus >= 1


class TestPlanarDual:
    def test_triangle_dual(self):
        dual = planar_dual(tri_embedding())
        assert len(dual.graph.vertices) == 2
        assert len(dual.graph.arcs) == 3
        assert all({a.tail, a.head} == {0, 1} for a in dual.graph.arcs)

    def test_loop_dual_single_arc(self):
        g = Multigraph([1], [Arc("l", 1, 1)])
        embedding = PlanarEmbedding(g, {1: (ArcEnd("l", TAIL), ArcEnd("l", HEAD))})
        dual = planar_dual(embedding)
        assert len(dual.graph.vertices) == 2
        assert len(dual.graph.arcs) == 1
        a = dual.graph.arcs[0]
        assert a.tail != a.head

    def test_tree_dual_all_loops(self):
        g = Multigraph([1, 2, 3], [Arc("a", 1, 2), Arc("b", 2, 3)])
        rotation = {
            1: (ArcEnd("a", TAIL),),
            2: (ArcEnd("a", HEAD), ArcEnd("b", TAIL)),
            3: (ArcEnd("b", HEAD),),
        }
        dual = planar_dual(PlanarEmbedding(g, rotation))
        assert len(dual.graph.vertices) == 1
        assert all(a.tail == a.head for a in dual.graph.arcs)

    def test_dual_twice_preserves_arc_count(self):
        dual = planar_dual(tri_embedding())
        again = planar_dual(dual.embedding)
        assert len(again.graph.arcs) == len(tri_graph().arcs)
        # faces of the dual correspond to primal vertices
        assert len(again.graph.vertices) == len(tri_graph().vertices)


def test_cycle_vector_validation():
    with pytest.raises(GraphError):
        CycleVector({"a": 2})
    c = CycleVector({"a": 1, "b": -1})
    assert c.reversed().signs == {"a": -1, "b": 1}


def test_embedding_validates_rotation():
    g = tri_graph()
    with pytest.raises(GraphError):
        PlanarEmbedding(g, {1: (ArcEnd("a1", TAIL),), 2: (ArcEnd("a1", HEAD), ArcEnd("a2", TAIL)), 3: (ArcEnd("a2", HEAD),)})  # a3 ends missing
