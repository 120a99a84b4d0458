"""Chip-firing games: moves, reachability, certification, closures."""

import json
from collections import Counter

import pytest

from bondlat import (
    Arc,
    ChipArrangement,
    ChipError,
    GameGraph,
    Multigraph,
    PosetError,
    build_complete_game,
    build_game,
    can_fire,
    can_unfire,
    certify_game,
    check_complete_game_representation,
    fire,
    unfire,
    unique_minimal_representation_report,
)
from bondlat.checker import ColoredDigraph
from bondlat.chipfire import CAP_EXCEEDED, CYCLIC, FINITE
from bondlat.cli import main
from bondlat.jsonio import game_certificate_json, game_json

from util import (
    chain_poset,
    diamond_poset,
    m3_poset,
    oracle_firing_sequences,
    oracle_game,
    two_source_poset,
)


def chain_graph() -> Multigraph:
    return Multigraph([1, 2, 3], [Arc("e1", 1, 2), Arc("e2", 1, 3), Arc("e3", 2, 3)])


def fork_graph() -> Multigraph:
    # two independent vertices feeding one sink
    return Multigraph([1, 2, 3], [Arc("e1", 1, 3), Arc("e2", 2, 3)])


def two_cycle() -> Multigraph:
    return Multigraph([1, 2], [Arc("e1", 1, 2), Arc("e2", 2, 1)])


def loop_graph() -> Multigraph:
    return Multigraph([1, 2], [Arc("l", 1, 1), Arc("e", 1, 2)])


def chips(**counts) -> ChipArrangement:
    return ChipArrangement({int(k[1:]): n for k, n in counts.items()})


class TestFire:
    def test_spec_chain(self):
        g = chain_graph()
        first = fire(g, ChipArrangement({1: 2}), 1)
        assert first == ChipArrangement({2: 1, 3: 1})
        second = fire(g, first, 2)
        assert second == ChipArrangement({3: 2})

    def test_can_fire_needs_out_degree_chips(self):
        g = chain_graph()
        assert can_fire(g, ChipArrangement({1: 2}), 1)
        assert not can_fire(g, ChipArrangement({1: 1}), 1)
        assert not can_fire(g, ChipArrangement({3: 9}), 3)  # no out-arcs

    def test_loop_only_firing_returns_the_chip(self):
        g = Multigraph([1], [Arc("l", 1, 1)])
        s = ChipArrangement({1: 1})
        assert can_fire(g, s, 1)
        assert fire(g, s, 1) == s

    def test_fire_errors(self):
        g = chain_graph()
        with pytest.raises(ChipError):
            fire(g, ChipArrangement({1: 1}), 1)
        with pytest.raises(ChipError):
            fire(g, ChipArrangement({3: 5}), 3)
        with pytest.raises(ChipError):
            fire(g, ChipArrangement({}), 9)

    def test_fire_conserves_chips(self):
        g = loop_graph()
        s = ChipArrangement({1: 3})
        assert fire(g, s, 1).total() == s.total()


class TestUnfire:
    def test_fork_co_fire(self):
        g = fork_graph()
        assert can_unfire(g, chips(v2=1, v3=1), 1)
        assert unfire(g, chips(v2=1, v3=1), 1) == chips(v1=1, v2=1)

    def test_needs_chips_at_every_out_neighbor(self):
        g = fork_graph()
        assert not can_unfire(g, chips(v1=1, v2=1), 1)  # sink holds nothing

    def test_sink_never_unfires(self):
        assert not can_unfire(fork_graph(), chips(v3=5), 3)

    def test_loop_counts_itself_as_out_neighbor(self):
        g = loop_graph()
        assert not can_unfire(g, chips(v2=1), 1)  # the loop must return a chip too
        assert can_unfire(g, chips(v1=1, v2=1), 1)
        assert unfire(g, chips(v1=1, v2=1), 1) == chips(v1=2)

    def test_unfire_illegal_raises(self):
        with pytest.raises(ChipError):
            unfire(fork_graph(), chips(v1=1), 1)

    def test_fire_unfire_are_exact_inverses(self):
        cases = [
            (chain_graph(), ChipArrangement({1: 2})),
            (fork_graph(), chips(v1=1, v2=1)),
            (loop_graph(), chips(v1=2, v2=1)),
        ]
        for g, start in cases:
            game = build_complete_game(g, start)
            for s in game.states:
                for v in g.vertices:
                    if can_fire(g, s, v):
                        assert unfire(g, fire(g, s, v), v) == s
                    if can_unfire(g, s, v):
                        assert fire(g, unfire(g, s, v), v) == s


class TestArrangement:
    def test_zero_counts_do_not_matter(self):
        assert ChipArrangement({1: 0, 2: 3}) == ChipArrangement({2: 3})

    def test_validation_through_build(self):
        with pytest.raises(ChipError):
            build_game(chain_graph(), ChipArrangement({1: -1}))
        with pytest.raises(ChipError):
            build_game(chain_graph(), ChipArrangement({9: 1}))


class TestBuildGame:
    def test_spec_chain(self):
        game = build_game(chain_graph(), ChipArrangement({1: 2}))
        assert game.verdict == FINITE and game.complete
        order = (1, 2, 3)
        assert [tuple(s[v] for v in order) for s in game.states] == [
            (2, 0, 0),
            (0, 1, 1),
            (0, 0, 2),
        ]
        assert game.moves == ((0, 1, 1), (1, 2, 2))
        assert game.to_colored_digraph().end(0) == 2

    def test_fork_diamond(self):
        game = build_game(fork_graph(), chips(v1=1, v2=1))
        assert game.verdict == FINITE
        assert len(game.states) == 4
        assert game.moves == ((0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1))

    def test_moves_between_one_pair_sort_by_id_key(self):
        # firing either loop-only vertex keeps the state, so two moves share
        # (from, to) and their int and str colors must still sort
        g = Multigraph([0, "x"], [Arc("a", 0, 0), Arc("b", "x", "x")])
        start = ChipArrangement({0: 1, "x": 1})
        assert build_game(g, start).moves == ((0, 0, 0), (0, 0, "x"))
        assert build_complete_game(g, start).moves == ((0, 0, 0), (0, 0, "x"))

    def test_stuck_start(self):
        game = build_game(chain_graph(), ChipArrangement({1: 1}))
        assert game.verdict == FINITE
        assert len(game.states) == 1 and game.moves == ()
        assert game.to_colored_digraph().end(0) == 0

    def test_two_cycle_is_cyclic(self):
        game = build_game(two_cycle(), chips(v1=1))
        assert game.verdict == CYCLIC
        assert len(game.states) == 2
        with pytest.raises(PosetError):
            game.to_colored_digraph().end(0)

    def test_loop_only_vertex_spins_forever(self):
        g = Multigraph([1], [Arc("l", 1, 1)])
        game = build_game(g, ChipArrangement({1: 1}))
        assert game.verdict == CYCLIC
        assert game.moves == ((0, 0, 1),)

    def test_cap(self):
        game = build_game(chain_graph(), ChipArrangement({1: 2}), cap=2)
        assert game.verdict == CAP_EXCEEDED
        assert not game.complete

    def test_states_share_one_total(self):
        for g, start in [
            (chain_graph(), ChipArrangement({1: 4})),
            (fork_graph(), chips(v1=2, v2=3)),
        ]:
            game = build_game(g, start)
            totals = {s.total() for s in game.states}
            assert totals == {start.total()}


class TestCertifyGame:
    def test_spec_chain(self):
        cert = certify_game(build_game(chain_graph(), ChipArrangement({1: 2})))
        assert cert.ok
        assert cert.verdict.status == "uld"
        assert cert.terminal == ChipArrangement({3: 2})
        assert cert.firing_counts[0] == Counter({1: 1, 2: 1})
        assert cert.firing_counts[1] == Counter({2: 1})
        assert cert.firing_counts[2] == Counter()
        assert cert.multisets_consistent and cert.multiset_witness is None

    def test_fork_diamond(self):
        cert = certify_game(build_game(fork_graph(), chips(v1=1, v2=1)))
        assert cert.ok and cert.verdict.status == "uld"
        assert cert.firing_counts[0] == Counter({1: 1, 2: 1})

    def test_single_state(self):
        cert = certify_game(build_game(chain_graph(), ChipArrangement({})))
        assert cert.ok
        assert cert.firing_counts == (Counter(),)

    def test_cyclic_game_rejected(self):
        with pytest.raises(ChipError):
            certify_game(build_game(two_cycle(), chips(v1=1)))

    def test_inconsistent_multisets_detected(self):
        # hand-made move digraph: two runs to the terminal firing different
        # vertices; never produced by real chip-firing
        rows = ((2, 0, 0), (1, 0, 0), (0, 0, 0))
        moves = ((0, 1, "a"), (0, 2, "b"), (1, 2, "c"))
        fake = GameGraph(chain_graph(), rows, moves, FINITE)
        cert = certify_game(fake)
        assert not cert.multisets_consistent and not cert.ok
        state, left, right = cert.multiset_witness
        assert state == 0 and left != right
        # from the terminal, state 0 is reached by "b" and again by "c" then "a"
        assert cert.multiset_witness == (0, {"b": 1}, {"a": 1, "c": 1})


class TestFiringSequences:
    """Maximal sequences are walked over the oracle's moves, which must be
    the moves the library's game made."""

    @staticmethod
    def sequences(game):
        _, moves, _ = oracle_game(game.graph, dict(game.states[0]), 100)
        assert moves == game.moves
        return oracle_firing_sequences(moves)

    def test_chain_has_one(self):
        game = build_game(chain_graph(), ChipArrangement({1: 2}))
        assert self.sequences(game) == [(1, 2)]

    def test_fork_has_both_orders(self):
        game = build_game(fork_graph(), chips(v1=1, v2=1))
        assert sorted(self.sequences(game)) == [(1, 2), (2, 1)]

    def test_all_sequences_fire_one_multiset(self):
        game = build_game(fork_graph(), chips(v1=2, v2=1))
        multisets = {
            tuple(sorted(Counter(seq).items()))
            for seq in self.sequences(game)
        }
        assert len(multisets) == 1
        cert = certify_game(game)
        assert dict(cert.firing_counts[0]) == dict(
            (v, n) for v, n in multisets.pop()
        )


class TestCompleteGame:
    def test_chain_closure_from_the_middle(self):
        game = build_complete_game(chain_graph(), ChipArrangement({2: 1, 3: 1}))
        assert game.complete and game.acyclic
        order = (1, 2, 3)
        # unfiring 2 out of (0,1,1) legally reaches (0,2,0) as well
        assert sorted(tuple(s[v] for v in order) for s in game.states) == [
            (0, 0, 2),
            (0, 1, 1),
            (0, 2, 0),
            (2, 0, 0),
        ]
        # moves are stored in fire direction regardless of discovery side
        poset = game.to_colored_digraph().closure
        key = {tuple(s[v] for v in order): i for i, s in enumerate(game.states)}
        assert poset.leq(key[(2, 0, 0)], key[(0, 0, 2)])

    def test_closure_is_start_independent(self):
        seen = []
        for start in (ChipArrangement({1: 2}), ChipArrangement({3: 2})):
            game = build_complete_game(chain_graph(), start)
            seen.append(sorted(tuple(s[v] for v in (1, 2, 3)) for s in game.states))
        assert seen[0] == seen[1]

    def test_radius_interrupts(self):
        game = build_complete_game(chain_graph(), ChipArrangement({1: 2}), cap=0)
        assert not game.complete
        assert len(game.states) == 1

    def test_cyclic_closure_has_no_poset(self):
        game = build_complete_game(two_cycle(), chips(v1=1))
        assert not game.acyclic
        with pytest.raises(PosetError):
            game.to_colored_digraph().closure

    def test_representation_check_needs_completeness(self):
        game = build_complete_game(chain_graph(), ChipArrangement({1: 2}), cap=0)
        with pytest.raises(ChipError):
            check_complete_game_representation(game)

    def test_chain_closure_representation(self):
        game = build_complete_game(chain_graph(), ChipArrangement({1: 2}))
        report = check_complete_game_representation(game)
        assert report.ok and report.witness is None


class TestRepresentationReport:
    def test_lattices_pass(self):
        for p in (chain_poset(4), diamond_poset()):
            report = unique_minimal_representation_report(p)
            assert report.ok
            assert set(report.representations) == set(range(p.n))

    def test_diamond_representations(self):
        report = unique_minimal_representation_report(diamond_poset())
        assert report.representations[0] == (1, 2)
        assert report.representations[3] == ()

    def test_two_source_witness(self):
        report = unique_minimal_representation_report(two_source_poset())
        assert not report.ok
        assert report.witness == ("s", "t")

    def test_m3_two_minimal_sets(self):
        report = unique_minimal_representation_report(m3_poset())
        assert not report.ok
        label, rep_a, rep_b = report.witness
        assert label == "bot" and rep_a != rep_b

    def test_single_element(self):
        assert unique_minimal_representation_report(chain_poset(1)).ok


def test_game_to_colored_digraph_colors_by_fired_vertex():
    game = build_game(fork_graph(), chips(v1=1, v2=1))
    cd = game.to_colored_digraph()
    for k, (i, j, v) in enumerate(game.moves):
        arc = cd.graph.arc(k)
        assert (arc.tail, arc.head) == (i, j)
        assert cd.colors[k] == v


def test_chipfire_run_builds_one_move_index(tmp_path, monkeypatch):
    # the index build_game makes for its cycle check is the one certify_game reads
    calls = []
    real = ColoredDigraph.from_triples

    def counting(n, triples):
        calls.append(n)
        return real(n, triples)

    monkeypatch.setattr(ColoredDigraph, "from_triples", counting)
    source = tmp_path / "chain.json"
    source.write_text(json.dumps({
        "vertices": [1, 2, 3],
        "arcs": [{"id": "e1", "tail": 1, "head": 2}, {"id": "e2", "tail": 1, "head": 3}, {"id": "e3", "tail": 2, "head": 3}],
        "chips": {"1": 2},
    }))
    assert main(["chipfire", "--input", str(source), "--output", str(tmp_path / "out.json")]) == 0
    assert calls == [3]
    game = build_game(chain_graph(), ChipArrangement({1: 2}))
    assert game.to_colored_digraph() is game.to_colored_digraph()


def test_certifying_and_writing_a_game_builds_no_counters():
    # states and firing tallies stay count tuples until a caller reads them
    game = build_game(fork_graph(), chips(v1=1, v2=1))
    cert = certify_game(game)
    game_json(game)
    game_certificate_json(cert, game)
    assert "states" not in vars(game) and "firing_counts" not in vars(cert)
    assert game.rows == ((1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2))
    assert game.states == tuple(ChipArrangement(dict(zip((1, 2, 3), row))) for row in game.rows)
    assert cert.firing_counts == (Counter({1: 1, 2: 1}), Counter({2: 1}), Counter({1: 1}), Counter())
