"""The `Record` base of the immutable result classes: fields, construction,
immutability, equality, hashing and repr."""

import os
import subprocess
import sys
from collections import Counter
from collections.abc import Sequence

import pytest

from bondlat import (
    Arc,
    ArcEnd,
    Bond,
    ChipArrangement,
    CompleteGame,
    CoverVerdict,
    CycleVector,
    GameCertificate,
    GameGraph,
    GraphError,
    Multigraph,
    Orientation,
    PlanarEmbedding,
    build_game,
    certify_game,
    planar_dual,
)
from bondlat.checker import ColoredDigraph
from bondlat.jsonio import RowTable

from util import tri_embedding, tri_graph

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def chain_game() -> GameGraph:
    g = Multigraph([1, 2, 3], [Arc("e1", 1, 2), Arc("e2", 1, 3), Arc("e3", 2, 3)])
    return build_game(g, ChipArrangement({1: 2}))


class TestRepr:
    def test_matches_the_generated_form(self):
        assert repr(Arc("a", 1, 2)) == "Arc(id='a', tail=1, head=2)"
        assert repr(CoverVerdict("uld", True)) == "CoverVerdict(status='uld', ok=True, witness=None)"
        assert repr(CycleVector({"a": 1, "b": -1})) == "CycleVector(signs={'a': 1, 'b': -1})"
        assert repr(ArcEnd("a", "tail")) == "ArcEnd(arc='a', end='tail')"

    def test_game_repr_omits_the_move_index(self):
        game = chain_game()
        assert game.colored is not None
        assert repr(game) == (
            f"GameGraph(graph={game.graph!r}, rows={game.rows!r}, moves={game.moves!r}, verdict='finite')"
        )
        complete = CompleteGame(game.graph, (), (), True, True, ColoredDigraph.from_triples(0, ()))
        assert repr(complete) == f"CompleteGame(graph={game.graph!r}, rows=(), moves=(), complete=True, acyclic=True)"


class TestFields:
    def test_fields_come_bases_first(self):
        assert GameGraph._fields == ("graph", "rows", "moves", "verdict", "colored")
        assert CompleteGame._fields == ("graph", "rows", "moves", "complete", "acyclic", "colored")
        assert Arc._fields == ("id", "tail", "head")

    def test_keyword_and_default_construction(self):
        assert CoverVerdict(ok=False, status="cyclic") == CoverVerdict("cyclic", False, None)
        assert CoverVerdict("x", False, witness=(1, 2)).witness == (1, 2)
        assert Arc(id="a", tail=1, head=2) == Arc("a", 1, 2)
        game = chain_game()
        assert GameGraph(game.graph, game.rows, game.moves, game.verdict).colored is None

    def test_bad_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            CoverVerdict("uld", True, None, "extra")
        with pytest.raises(TypeError):
            CoverVerdict("uld", True, verdict=None)
        with pytest.raises(TypeError):
            CoverVerdict("uld")
        with pytest.raises(TypeError):
            CoverVerdict("uld", True, status="lld")
        with pytest.raises(TypeError):
            Arc("a", 1)

    def test_post_init_checks_run_after_keyword_construction(self):
        with pytest.raises(GraphError):
            CycleVector(signs={"a": 2})
        with pytest.raises(GraphError):
            ArcEnd(arc="a", end="middle")
        with pytest.raises(GraphError):
            Orientation(base=tri_graph(), flips={})


class TestImmutable:
    @pytest.mark.parametrize(
        "record, name",
        [
            (Arc("a", 1, 2), "tail"),
            (Arc("a", 1, 2), "new"),
            (CoverVerdict("uld", True), "ok"),
            (Bond({"a": 1}), "values"),
        ],
    )
    def test_assign_and_delete_raise(self, record, name):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before

    def test_cached_properties_fill_on_an_immutable_instance(self):
        game = chain_game()
        assert game.states == game.states and len(game.states) == len(game.rows)
        assert all(isinstance(s, ChipArrangement) for s in game.states)
        cert = certify_game(game)
        assert isinstance(cert, GameCertificate) and cert.ok
        assert cert.firing_counts[0] == Counter({1: 1, 2: 1})
        assert cert.firing_counts is cert.firing_counts
        dual = planar_dual(tri_embedding())
        assert isinstance(dual.embedding, PlanarEmbedding)
        assert dual.embedding is dual.embedding


class TestEqualityAndHash:
    def test_by_field(self):
        assert Arc("a", 1, 2) == Arc("a", 1, 2)
        assert Arc("a", 1, 2) != Arc("a", 2, 1)
        assert hash(Arc("a", 1, 2)) == hash(Arc("a", 1, 2))
        assert len({CoverVerdict("uld", True), CoverVerdict("uld", True), CoverVerdict("lld", True)}) == 2
        assert Arc("a", 1, 2) != ("a", 1, 2)
        assert ArcEnd("a", "tail") != Arc("a", "tail", None)

    def test_move_index_takes_no_part(self):
        game = chain_game()
        bare = GameGraph(game.graph, game.rows, game.moves, game.verdict)
        assert bare == game and bare.colored is None and game.colored is not None

    def test_dict_fields_compare_but_do_not_hash(self):
        assert Bond({"a": 1, "b": 2}) == Bond({"b": 2, "a": 1})
        assert Bond({"a": 1}) != Bond({"a": 2})
        assert CycleVector({"a": 1}) == CycleVector({"a": 1})
        with pytest.raises(TypeError, match="unhashable type: 'Bond'"):
            hash(Bond({"a": 1}))
        with pytest.raises(TypeError, match="unhashable type: 'CycleVector'"):
            hash(CycleVector({"a": 1}))


def test_row_table_is_a_sequence():
    assert issubclass(RowTable, Sequence)
    assert isinstance(RowTable(((1, 2, 3),)), Sequence)


def test_import_generates_no_code():
    """Importing the CLI on a bare interpreter (no site packages) loads
    neither `dataclasses` nor `inspect`."""
    check = "import sys, bondlat.cli; sys.exit(sorted({'dataclasses', 'inspect'} & set(sys.modules)) or None)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", check],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
