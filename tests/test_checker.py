"""Colored-digraph certification and brute-force poset analysis."""

import time
from itertools import chain
from operator import is_

import pytest

from bondlat import (
    Arc,
    ChipArrangement,
    ColoredDigraph,
    FinitePoset,
    GraphError,
    Multigraph,
    PosetError,
    TraceError,
    brute_uld,
    build_complete_game,
    build_game,
    certify_game,
    certify_lld_cover,
    certify_uld_cover,
    check_distinct_fork_colors,
    check_fork_completion,
    encode_potentials,
    enumerate_lattice,
    trace_color,
)
from bondlat.cli import main
from bondlat.jsonio import dumps, system_json

from util import (
    chain_poset,
    closure_poset,
    cyclic_u_digraph,
    diamond_poset,
    m3_poset,
    n5_poset,
    two_source_poset,
    two_source_u_digraph,
)


def diamond_cover() -> ColoredDigraph:
    g = Multigraph(
        ["bot", "a", "b", "top"],
        [Arc("e1", "bot", "a"), Arc("e2", "bot", "b"), Arc("e3", "a", "top"), Arc("e4", "b", "top")],
    )
    return ColoredDigraph(g, {"e1": 1, "e2": 2, "e3": 2, "e4": 1})


def vee(color_b=2) -> ColoredDigraph:
    g = Multigraph(["a", "b", "c"], [Arc("ab", "a", "b"), Arc("ac", "a", "c")])
    return ColoredDigraph(g, {"ab": 1, "ac": color_b})


def test_colored_digraph_requires_total_coloring():
    g = Multigraph([1, 2], [Arc("a", 1, 2)])
    with pytest.raises(GraphError):
        ColoredDigraph(g, {})


class TestForkColors:
    def test_diamond_passes(self):
        assert check_distinct_fork_colors(diamond_cover())

    def test_repeated_color_to_distinct_heads(self):
        report = check_distinct_fork_colors(vee(color_b=1))
        assert not report
        assert report.witnesses == (("a", "ab", "ac", 1),)

    def test_parallel_arcs_may_share_a_color(self):
        g = Multigraph([1, 2], [Arc("p", 1, 2), Arc("q", 1, 2)])
        assert check_distinct_fork_colors(ColoredDigraph(g, {"p": 1, "q": 1}))

    def test_cyclic_example_passes(self):
        assert check_distinct_fork_colors(cyclic_u_digraph())

    def test_witnesses_name_mixed_ids_in_id_order(self):
        # arcs listed out of id order, with int and str ids: witnesses pair
        # the first arc of a color in id order with each later one
        g = Multigraph(
            ["r", "x", "y", "z"],
            [Arc("q", "r", "y"), Arc(7, "r", "x"), Arc("p", "x", "z"), Arc("s", "y", "z"), Arc(3, "r", "z")],
        )
        cd = ColoredDigraph(g, {"q": 1, 7: 1, "p": 2, "s": 2, 3: 1})
        assert cd.ids == (3, 7, "p", "q", "s")
        assert check_distinct_fork_colors(cd).witnesses == (("r", 3, 7, 1), ("r", 3, "q", 1))
        assert check_distinct_fork_colors(cd, 0).witnesses == (("z", "p", "s", 2),)
        uld, lld = certify_uld_cover(cd), certify_lld_cover(cd)
        assert (uld.status, uld.witness) == ("fork coloring violated", (("r", 3, 7, 1), ("r", 3, "q", 1)))
        assert (lld.status, lld.witness) == ("fork coloring violated", (("z", "p", "s", 2),))

    def test_one_triple_object_for_two_arcs_keeps_both_ids(self):
        a, b = (0, 1, 0), (0, 2, 0)
        assert check_distinct_fork_colors(ColoredDigraph.from_triples(3, [a, b, b])).witnesses == (
            (0, 0, 1, 0),
            (0, 0, 2, 0),
        )
        a, b = (1, 0, 0), (2, 0, 0)
        assert check_distinct_fork_colors(ColoredDigraph.from_triples(3, [a, b, b]), 0).witnesses == (
            (0, 0, 1, 0),
            (0, 0, 2, 0),
        )


class TestForkCompletion:
    def test_diamond_passes(self):
        assert check_fork_completion(diamond_cover())

    def test_open_fork(self):
        report = check_fork_completion(vee())
        assert not report
        assert report.witnesses == (("a", "b", "c"),)

    def test_completion_must_swap_colors(self):
        g = Multigraph(
            ["bot", "a", "b", "top"],
            [Arc("e1", "bot", "a"), Arc("e2", "bot", "b"), Arc("e3", "a", "top"), Arc("e4", "b", "top")],
        )
        # e3 repeats e1's color instead of taking e2's
        report = check_fork_completion(ColoredDigraph(g, {"e1": 1, "e2": 2, "e3": 1, "e4": 1}))
        assert not report
        assert ("bot", "a", "b") in report.witnesses

    def test_cyclic_example_passes(self):
        assert check_fork_completion(cyclic_u_digraph())

    def test_parallel_arms_report_one_fork_in_first_seen_order(self):
        # both parallel arcs to "u" open the same fork toward "w"
        g = Multigraph(
            ["v", "u", "w", "x"],
            [Arc("e1", "v", "u"), Arc("e2", "v", "u"), Arc("e3", "v", "w"), Arc("e4", "v", "x")],
        )
        report = check_fork_completion(ColoredDigraph(g, {"e1": 1, "e2": 2, "e3": 3, "e4": 4}))
        assert report.witnesses == (("v", "u", "w"), ("v", "u", "x"), ("v", "w", "x"))

    def test_completion_through_the_second_of_two_same_colored_arms(self):
        # u has two c-colored arms; only the second one, to z2, closes the
        # fork (v, u, w), so keeping the first head per color is not enough
        arcs = [
            Arc("e1", "v", "u"), Arc("e2", "v", "w"), Arc("e3", "u", "z1"), Arc("e4", "u", "z2"),
            Arc("e5", "z1", "t"), Arc("e6", "z2", "t"), Arc("e7", "w", "z2"),
        ]
        colors = {"e1": "a", "e2": "c", "e3": "c", "e4": "c", "e5": "c", "e6": "c", "e7": "a"}
        vertices = ["v", "u", "w", "z1", "z2", "t"]
        assert check_fork_completion(ColoredDigraph(Multigraph(vertices, arcs), colors))
        report = check_fork_completion(ColoredDigraph(Multigraph(vertices, arcs[:-1]), colors))
        assert report.witnesses == (("v", "u", "w"),)


class TestCertifyUld:
    def test_empty(self):
        verdict = certify_uld_cover(ColoredDigraph(Multigraph([], []), {}))
        assert verdict.status == "empty" and not verdict

    def test_disconnected(self):
        cd = ColoredDigraph(Multigraph([1, 2], []), {})
        verdict = certify_uld_cover(cd)
        assert verdict.status == "disconnected"
        assert verdict.witness == (1, 2)

    def test_axioms_alone_do_not_imply_acyclic(self):
        verdict = certify_uld_cover(cyclic_u_digraph())
        assert verdict.status == "cyclic"
        cycle = verdict.witness
        assert cycle[0] == cycle[-1] and len(cycle) > 2

    def test_two_sources(self):
        verdict = certify_uld_cover(two_source_u_digraph())
        assert verdict.status == "no unique source"
        assert verdict.witness == ("s", "t")

    def test_fork_coloring_violated(self):
        verdict = certify_uld_cover(vee(color_b=1))
        assert verdict.status == "fork coloring violated"

    def test_fork_completion_violated(self):
        verdict = certify_uld_cover(vee())
        assert verdict.status == "fork completion violated"
        assert verdict.witness == (("a", "b", "c"),)

    def test_diamond_is_uld(self):
        cd = diamond_cover()
        verdict = certify_uld_cover(cd)
        assert verdict.status == "uld" and verdict.ok
        p = closure_poset(cd)
        bot, top = p.labels.index("bot"), p.labels.index("top")
        assert p.leq(bot, top) and not p.leq(top, bot)
        assert sorted(p.covers()) == sorted(
            (p.labels.index(lo), p.labels.index(hi))
            for lo, hi in (("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"))
        )

    def test_chain_needs_no_colors_to_agree(self):
        g = Multigraph([0, 1, 2], [Arc("x", 0, 1), Arc("y", 1, 2)])
        verdict = certify_uld_cover(ColoredDigraph(g, {"x": 9, "y": 9}))
        assert verdict.status == "uld"


class TestCertifyLld:
    def test_diamond_is_lld(self):
        verdict = certify_lld_cover(diamond_cover())
        assert verdict.status == "lld" and verdict.ok

    def test_lld_poset_keeps_the_original_orientation(self):
        # the lower side reads the index without reversing it, so the
        # closure of the digraph it certified still runs bottom to top
        cd = diamond_cover()
        arcs = cd.arcs
        assert certify_lld_cover(cd).ok and cd.arcs is arcs
        down = closure_poset(cd)
        bot, top = down.labels.index("bot"), down.labels.index("top")
        assert down.leq(bot, top) and not down.leq(top, bot)

    def test_two_sinks(self):
        verdict = certify_lld_cover(vee())
        assert verdict.status == "no unique sink"
        assert set(verdict.witness) == {"b", "c"}

    def test_shared_in_colors_break_the_reverse(self):
        verdict = certify_lld_cover(two_source_u_digraph())
        assert verdict.status == "fork coloring violated"


def grid_graph() -> Multigraph:
    """3x3 grid, arcs going right and down."""
    arcs = []
    for i in range(3):
        for j in range(3):
            v = 3 * i + j
            if j < 2:
                arcs.append(Arc(f"h{v}", v, v + 1))
            if i < 2:
                arcs.append(Arc(f"v{v}", v, v + 3))
    return Multigraph(range(9), arcs)


class TestOneArcShape:
    def test_index_holds_the_cover_and_move_triples(self):
        g = grid_graph()
        system = encode_potentials(g, {a.id: 0 for a in g.arcs}, {a.id: 1 for a in g.arcs}, 0).system
        cd = enumerate_lattice(system.reduce()[0])
        games = [build_game(g, ChipArrangement({0: 4})), build_complete_game(g, ChipArrangement({0: 4}))]
        for arcs, colored in [(cd.covers, cd.to_colored_digraph())] + [(x.moves, x.to_colored_digraph()) for x in games]:
            assert len(colored.arcs) == len(arcs) > 0
            assert all(map(is_, colored.arcs, arcs))
            for lists in (colored.out, colored.into):
                assert sorted(map(id, chain.from_iterable(lists))) == sorted(map(id, arcs))
            assert colored.ids == range(len(arcs))
            assert colored.colors == {k: c for k, (_, _, c) in enumerate(arcs)}

    def test_each_side_orders_once(self, monkeypatch):
        calls = []
        real = ColoredDigraph.order

        def counting(self, far=1):
            if far not in self._orders:
                calls.append(far)
            return real(self, far)

        monkeypatch.setattr(ColoredDigraph, "order", counting)
        cd = ColoredDigraph.from_triples(3, [(0, 1, 0), (1, 2, 1)])
        assert cd.order(1) == [0, 1, 2] and cd.order(1) is cd.order(1)
        assert cd.order(0) == [2, 1, 0]
        assert certify_uld_cover(cd).ok and certify_lld_cover(cd).ok
        assert calls == [1, 0]


class TestLazyClosure:
    def test_certification_builds_no_closure(self, monkeypatch, tmp_path):
        calls = []
        real = FinitePoset.__init__

        def counting(self, *args):
            calls.append(self)
            real(self, *args)

        monkeypatch.setattr(FinitePoset, "__init__", counting)
        g = grid_graph()
        system = encode_potentials(g, {a.id: 0 for a in g.arcs}, {a.id: 1 for a in g.arcs}, 0).system
        cd = enumerate_lattice(system.reduce()[0])
        colored = cd.to_colored_digraph()
        uld = certify_uld_cover(colored)
        lld = certify_lld_cover(colored)
        game = build_game(g, ChipArrangement({0: 4}))
        cert = certify_game(game)
        source, sink = tmp_path / "grid.json", tmp_path / "out.json"
        source.write_text(dumps(system_json(system)), encoding="utf-8")
        assert main(["lattice", "--input", str(source), "--output", str(sink)]) == 0
        assert uld.ok and lld.ok and cert.ok
        assert calls == []

    def test_certification_builds_no_multigraph(self, monkeypatch):
        g = grid_graph()
        system = encode_potentials(g, {a.id: 0 for a in g.arcs}, {a.id: 1 for a in g.arcs}, 0).system
        cd = enumerate_lattice(system.reduce()[0])
        path = Multigraph(range(4), [Arc(k, k, k + 1) for k in range(3)])
        game = build_game(path, ChipArrangement({0: 3}))
        builds = []
        real = Multigraph.__init__

        def counting(self, *args, **kwargs):
            builds.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Multigraph, "__init__", counting)
        colored = cd.to_colored_digraph()
        uld = certify_uld_cover(colored)
        lld = certify_lld_cover(colored)
        cert = certify_game(game)
        assert uld.ok and lld.ok and cert.ok
        assert builds == []


def test_distributive_needs_both_sides():
    both = diamond_cover()
    assert certify_uld_cover(both).ok and certify_lld_cover(both).ok
    one_sided = vee(color_b=2)
    assert not (certify_uld_cover(one_sided).ok and certify_lld_cover(one_sided).ok)


class TestFinitePoset:
    def test_from_covers_and_leq(self):
        p = diamond_poset()
        assert p.leq(0, 3) and p.leq(0, 1)
        assert not p.leq(1, 2) and not p.leq(2, 1)
        assert p.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert p.upper_covers(0) == [1, 2]

    def test_cyclic_covers_rejected(self):
        with pytest.raises(PosetError):
            FinitePoset.from_covers(("a", "b"), [(0, 1), (1, 0)])

    def test_meet_join(self):
        p = m3_poset()
        assert p.meet(1, 2) == 0 and p.join(1, 2) == 4
        assert p.meet(1, 4) == 1 and p.join(0, 2) == 2

    def test_missing_meet_is_none(self):
        p = two_source_poset()
        u, v = p.labels.index("u"), p.labels.index("v")
        assert p.meet(u, v) is None
        assert sorted(p.maximal_lower_bounds([u, v])) == [
            p.labels.index("s"),
            p.labels.index("t"),
        ]

    def test_meet_of_empty_set_is_the_top(self):
        assert diamond_poset().meet_of_set([]) == 3

    def test_meet_irreducibles(self):
        assert diamond_poset().meet_irreducible_indices() == [1, 2]
        assert chain_poset(3).meet_irreducible_indices() == [0, 1]
        assert m3_poset().meet_irreducible_indices() == [1, 2, 3]

    def test_dual_flips_leq(self):
        p = chain_poset(4)
        d = p.dual()
        assert d.leq(3, 0) and not d.leq(0, 3)

    def test_chain_of_2000_builds_in_linear_passes(self):
        # both mask sets are read off one Kahn order; a pairwise transpose
        # and re-validation of the masks took 3 s here
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            p = chain_poset(2000)
            best = min(best, time.perf_counter() - start)
        assert best < 0.5
        assert p.above[0] == p.below[1999] == (1 << 2000) - 1


class TestBruteUld:
    def test_diamond(self):
        report = brute_uld(diamond_poset())
        assert report.is_lattice and report.is_uld
        assert report.meet_irreducibles == (1, 2)
        assert report.is_distributive and report.distributive_witness is None

    def test_chain(self):
        report = brute_uld(chain_poset(5))
        assert report.is_lattice and report.is_uld and report.is_distributive

    def test_m3_has_ambiguous_representations(self):
        report = brute_uld(m3_poset())
        assert report.is_lattice and not report.is_uld
        x, rep_a, rep_b = report.uld_certificate
        assert x == 0
        assert rep_a != rep_b
        p = m3_poset()
        assert p.meet_of_set(rep_a) == 0 and p.meet_of_set(rep_b) == 0
        assert not report.is_distributive

    def test_n5_not_distributive(self):
        report = brute_uld(n5_poset())
        assert report.is_lattice
        assert not report.is_distributive
        x, y, z = report.distributive_witness
        p = n5_poset()
        assert p.meet(x, p.join(y, z)) != p.join(p.meet(x, y), p.meet(x, z))

    def test_non_lattice(self):
        report = brute_uld(two_source_poset())
        assert not report.is_lattice
        i, j, kind = report.lattice_witness
        assert kind == "meet"
        p = two_source_poset()
        assert p.meet(i, j) is None

    def test_empty_poset(self):
        report = brute_uld(FinitePoset.from_covers((), []))
        assert not report.is_lattice and report.lattice_witness == "empty"


class TestTraceColor:
    def test_full_path(self):
        trace = trace_color(diamond_cover(), "e1", ["e2"])
        assert trace.case == "a"
        assert trace.steps == (("bot", "e1"), ("b", "e4"))
        assert trace.absorbed_at is None

    def test_absorbed_immediately(self):
        trace = trace_color(diamond_cover(), "e1", ["e1"])
        assert trace.case == "b"
        assert trace.absorbed_at == 0
        assert trace.steps == (("bot", "e1"),)

    def test_absorbed_after_one_step(self):
        # path bot -> b -> top; its second arc carries the traced color
        trace = trace_color(diamond_cover(), "e1", ["e2", "e4"])
        assert trace.case == "b"
        assert trace.absorbed_at == 1

    def test_empty_path(self):
        trace = trace_color(diamond_cover(), "e1", [])
        assert trace.case == "a"
        assert trace.steps == (("bot", "e1"),)

    def test_incomplete_fork_raises(self):
        with pytest.raises(TraceError) as exc:
            trace_color(vee(), "ab", ["ac"])
        assert exc.value.fork == ("a", "b", "c")

    def test_disconnected_path_rejected(self):
        with pytest.raises(GraphError):
            trace_color(diamond_cover(), "e1", ["e4"])


class TestTopologicalOrder:
    @staticmethod
    def order(succ: list) -> list | None:
        """Forward Kahn order of the index whose arcs are the successor lists."""
        arcs = [(i, j, 0) for i, heads in enumerate(succ) for j in heads]
        return ColoredDigraph.from_triples(len(succ), arcs).order(1)

    def test_empty(self):
        assert self.order([]) == []

    def test_diamond(self):
        assert self.order([[1, 2], [3], [3], []]) == [0, 1, 2, 3]

    def test_two_sources_in_index_order(self):
        assert self.order([[2], [2], []]) == [0, 1, 2]
        assert self.order([[], [0], [0]]) == [1, 2, 0]

    def test_parallel_arcs(self):
        assert self.order([[1, 1, 1], []]) == [0, 1]

    def test_self_loop(self):
        assert self.order([[0]]) is None
        assert self.order([[1], [1]]) is None

    def test_two_cycle(self):
        assert self.order([[1], [0]]) is None
        assert self.order([[1], [2], [1]]) is None
