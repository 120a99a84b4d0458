"""Chip-firing games on directed multigraphs.

A vertex holding at least as many chips as its out-degree (and at least one
out-arc) may fire, sending one chip along every out-arc; loops return their
chips.  The reachable arrangements with moves colored by the fired vertex
form a digraph whose certification mirrors the bond-lattice machinery: a
finite game has a unique final arrangement and every maximal firing
sequence fires the same multiset of vertices.  States are walked as the
bond lattice's packed keys (`graph.pack`): fire and unfire are masked-add
tests, one explorer serves the game and the closure, and the keys become
count tuples (`rows`) once.  The move index's sink is the final arrangement,
its `into` tallies the firing multisets and its `closure` a complete game's
order.  `states` and `firing_counts` build `Counter`s on first read.

The bidirectional closure also walks unfirings (pulling one chip back along
every out-arc), recorded as reversed fire moves.  Its order is generally
only a meet-semilattice-like poset; `unique_minimal_representation_report`
checks the one property that survives: every arrangement is the unique
maximal lower bound of a unique minimal set of meet-irreducibles.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import cached_property
from itertools import groupby

from .checker import (
    ColoredDigraph,
    CoverVerdict,
    FinitePoset,
    TallyError,
    _tally,
    certify_uld_cover,
    meet_representations,
)
from .graph import Multigraph, Record, field_width, pack, unpack

FINITE = "finite"
CYCLIC = "cyclic"
CAP_EXCEEDED = "cap exceeded"


class ChipError(ValueError):
    """Illegal chip-firing move or malformed arrangement."""


ChipArrangement = Counter  # chips per vertex; a vertex not listed holds none


def _check_arrangement(g: Multigraph, arrangement: ChipArrangement):
    for v, n in arrangement.items():
        if not g.has_vertex(v):
            raise ChipError(f"arrangement places chips on unknown vertex {v!r}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ChipError(f"vertex {v!r} must hold a nonnegative integer number of chips")


def _moves(g: Multigraph, chips: ChipArrangement, movers) -> tuple[int, list, int]:
    """The packed-key layout of g's games from `chips`: field width, the move
    table of `movers` and the key of `chips`.  Each mover with out-arcs has a
    fire then an unfire row (addend, mask, want, delta, vertex position, unfire),
    legal at key k when (k + addend) & mask == want and making k + delta.
    Firing guards v's field by top - out(v); unfiring guards each
    out-neighbor's, v's own for a loop, by top minus v's arcs to it, which
    keeps fire(unfire(s, v), v) = s."""
    _check_arrangement(g, chips)
    row = [chips[v] for v in g.vertices]
    width = field_width(max(sum(row), len(g.arcs)))
    top, last = 1 << width - 1, len(row) - 1
    out_heads = {v: [] for v in movers}  # each head's field's lowest bit, per out-arc
    for arc in g.arcs:
        if arc.tail in out_heads:
            out_heads[arc.tail].append(1 << width * (last - g.index[arc.head]))
    table = []
    for v, heads in out_heads.items():
        if heads:
            here = 1 << width * (last - g.index[v])
            out, inflow, guard = len(heads), sum(heads), top * sum(set(heads))
            delta = inflow - out * here
            table += (((top - out) * here, top * here, top * here, delta, g.index[v], False),
                      (guard - inflow, guard, guard, -delta, g.index[v], True))
    return width, table, pack(row, width)


def _arrangement(order, row: tuple) -> ChipArrangement:
    return ChipArrangement(dict(zip(order, row)))


def _move(g: Multigraph, arrangement: ChipArrangement, v, unfire: bool) -> ChipArrangement | None:
    width, table, key = _moves(g, arrangement, (v,))
    for addend, mask, want, delta, _, _ in table[unfire::2]:  # v's one row, if v has out-arcs
        if (key + addend) & mask == want:
            return _arrangement(g.vertices, *unpack([key + delta], width, [0] * len(g.vertices)))
    return None


def can_fire(g: Multigraph, arrangement: ChipArrangement, v) -> bool:
    return _move(g, arrangement, v, False) is not None


def fire(g: Multigraph, arrangement: ChipArrangement, v) -> ChipArrangement:
    """Send one chip along every out-arc of v."""
    if not g.has_vertex(v):
        raise ChipError(f"cannot fire unknown vertex {v!r}")
    out = g.out_degree(v)
    if out == 0:
        raise ChipError(f"vertex {v!r} has no out-arcs and can never fire")
    if arrangement[v] < out:
        raise ChipError(f"vertex {v!r} holds {arrangement[v]} chips but needs {out} to fire")
    return _move(g, arrangement, v, False)


def can_unfire(g: Multigraph, arrangement: ChipArrangement, v) -> bool:
    return _move(g, arrangement, v, True) is not None


def unfire(g: Multigraph, arrangement: ChipArrangement, v) -> ChipArrangement:
    """Pull one chip back along every out-arc of v (the inverse of fire)."""
    moved = _move(g, arrangement, v, True)
    if moved is None:
        raise ChipError(f"cannot unfire vertex {v!r}: some out-neighbor lacks chips")
    return moved


def _explore(g: Multigraph, start: ChipArrangement, cap: int, unfire: bool) -> tuple[tuple, tuple, bool]:
    """Breadth-first walk over packed keys from `start` by fire moves, and
    unfire moves too when `unfire`, kept in fire direction: (rows, moves by
    (from, to, fired vertex in graph order), whether the cap cut it
    short).  Firing alone drops each new state past `cap`; the closure
    expands no state at distance `cap` and stops past `cap` states."""
    width, table, first = _moves(g, start, g.vertices)
    table = table if unfire else table[::2]
    keys, index = [first], {first: 0}
    moves = []  # (from, to, vertex position): fire i -> j and unfire j -> i give one triple twice
    cut, depth, layer_end = False, 0, 1
    for i, key in enumerate(keys):
        if i == layer_end:
            depth, layer_end = depth + 1, len(keys)
        if unfire and (len(keys) > cap or depth >= cap):
            cut = True
            break
        for addend, mask, want, delta, v, back in table:
            if (key + addend) & mask == want:
                j = index.get(key + delta)
                if j is None:
                    if not unfire and len(keys) >= cap:
                        cut = True
                        continue
                    j = index[key + delta] = len(keys)
                    keys.append(key + delta)
                moves.append((j, i, v) if back else (i, j, v))
    rows = unpack(keys, width, [0] * len(g.vertices))
    del index, keys  # unpack has read every key: the rows come from its fields
    moves.sort()
    vertices = g.vertices
    return tuple(rows), tuple([(i, j, vertices[v]) for (i, j, v), _ in groupby(moves)]), cut


class _Explored(Record):
    """What both explorers find."""

    _hidden = ("colored",)  # a subclass's move index, not part of its value

    graph: Multigraph
    rows: tuple   # chip count tuples in vertex order
    moves: tuple  # (from index, to index, fired vertex)

    @cached_property
    def states(self) -> tuple:  # one ChipArrangement per row
        return tuple(_arrangement(self.graph.vertices, row) for row in self.rows)

    def to_colored_digraph(self) -> ColoredDigraph:
        """The move index the explorer made, or a new one for a hand-built game."""
        return self.colored or ColoredDigraph.from_triples(len(self.rows), self.moves)


class GameGraph(_Explored):
    """Reachable arrangements and fire moves from a start arrangement.

    `verdict` is "finite" (all states explored, no directed cycle),
    "cyclic", or "cap exceeded".
    """

    verdict: str
    colored: ColoredDigraph | None = None

    @property
    def complete(self) -> bool:
        return self.verdict != CAP_EXCEEDED


def build_game(g: Multigraph, start: ChipArrangement, cap: int = 100_000) -> GameGraph:
    """All arrangements reachable by firing, by `_explore`; past `cap`
    states the verdict is "cap exceeded"."""
    rows, moves, capped = _explore(g, start, cap, False)
    if capped:
        return GameGraph(g, rows, moves, CAP_EXCEEDED)
    colored = ColoredDigraph.from_triples(len(rows), moves)
    verdict = CYCLIC if colored.order(1) is None else FINITE
    return GameGraph(g, rows, moves, verdict, colored)


class GameCertificate(Record):
    """Certification of a finite game's move digraph.  `firing_rows[i]`
    counts, per vertex of `fired`, the fires on any maximal run from state
    i; both are () when two runs differ."""

    verdict: CoverVerdict
    terminal: ChipArrangement
    fired: tuple
    firing_rows: tuple
    multisets_consistent: bool
    multiset_witness: object       # (state, fires, other fires) when two runs differ

    @property
    def ok(self) -> bool:
        return self.verdict.ok and self.multisets_consistent

    @cached_property
    def firing_counts(self) -> tuple:  # one Counter per firing row
        return tuple(_tally(self.fired, row) for row in self.firing_rows)


def certify_game(game: GameGraph) -> GameCertificate:
    """Certify the move digraph and the run-invariance of firing multisets.

    The terminal arrangement is the move index's unique sink, and the
    firing multiset of a state is its color tally walked back along the
    moves (the `into` lists) from it; a state whose moves predict
    different multisets is the witness.
    """
    if game.verdict != FINITE:
        raise ChipError(f"only finite games can be certified (verdict: {game.verdict})")
    cd = game.to_colored_digraph()
    verdict = certify_uld_cover(cd)
    terminal = _arrangement(game.graph.vertices, game.rows[cd.end(0)])
    try:
        fired, rows = cd.tallies(0)
    except TallyError as exc:
        return GameCertificate(verdict, terminal, (), (), False, exc.witness)
    return GameCertificate(verdict, terminal, fired, tuple(rows), True, None)


class CompleteGame(_Explored):
    """Closure of a start arrangement under both fire and unfire moves.

    All moves are stored in fire direction.  `complete` is False when the
    cap interrupted the walk.
    """

    complete: bool
    acyclic: bool
    colored: ColoredDigraph | None = None


def build_complete_game(g: Multigraph, start: ChipArrangement, cap: int = 100_000) -> CompleteGame:
    """The closure under fire and unfire, by `_explore`: states at distance
    `cap` from the start are not expanded, and the walk stops once it holds
    more than `cap` states; either leaves the closure incomplete."""
    rows, moves, cut = _explore(g, start, cap, True)
    colored = ColoredDigraph.from_triples(len(rows), moves)
    return CompleteGame(g, rows, moves, not cut, colored.order(1) is not None, colored)


class RepresentationReport(Record):
    """Unique-minimal-representation analysis of a finite poset."""

    ok: bool
    witness: object                 # see unique_minimal_representation_report
    representations: Mapping        # element index -> minimal representing index set


def unique_minimal_representation_report(p: FinitePoset) -> RepresentationReport:
    """Check that every element is the unique maximal lower bound of a
    unique minimal set of meet-irreducibles.

    The first element that fails gives the witness, in one of three forms:
    (label, None) when no set of meet-irreducibles has it as a maximal
    lower bound, (label, set, other set) for two minimal representing sets,
    or a pair (s, t) of distinct maximal lower bounds of s's set.
    """
    irreducibles = sum(1 << m for m in p.meet_irreducible_indices())
    representations = {}
    for s in range(p.n):
        minimal = meet_representations(p, s, irreducibles)
        if len(minimal) != 1:
            return RepresentationReport(False, (p.labels[s], *(minimal or (None,))), representations)
        rep = minimal[0]
        bounds = p.maximal_lower_bounds(rep)
        if bounds != [s]:
            other = next(t for t in bounds if t != s)
            return RepresentationReport(False, (p.labels[s], p.labels[other]), representations)
        representations[s] = rep
    return RepresentationReport(True, None, representations)


def check_complete_game_representation(game: CompleteGame) -> RepresentationReport:
    """Run the representation check on the order of a fully explored,
    acyclic closure: its move index's `closure`."""
    if not game.complete:
        raise ChipError(
            "closure exploration hit its cap; the representation check needs the whole poset"
        )
    return unique_minimal_representation_report(game.to_colored_digraph().closure)
