"""Chip-firing games on directed multigraphs.

A vertex holding at least as many chips as its out-degree (and at least one
out-arc) may fire, sending one chip along every out-arc; loops return their
chips.  The reachable arrangements with moves colored by the fired vertex
form a digraph whose certification mirrors the bond-lattice machinery: a
finite game has a unique final arrangement and every maximal firing
sequence fires the same multiset of vertices.  States are count tuples
(`rows`); the move index's sink is the final arrangement, its `into`
tallies the firing multisets and its `closure` a complete game's order.
`states` and `firing_counts` build `Counter`s on first read.

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

from .checker import (
    ColoredDigraph,
    CoverVerdict,
    FinitePoset,
    TallyError,
    _tally,
    certify_uld_cover,
    meet_representations,
)
from .graph import Multigraph, Record, id_key

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


def _rules(g: Multigraph, vertices) -> list:
    """The move rule of each of `vertices`: (its index in graph order, its
    out-degree, ((head index, arcs to that head), ...))."""
    index, rules = g.index, []
    for v in vertices:
        arcs, heads = g.out_arcs(v), {}
        for arc in arcs:
            h = index[arc.head]
            heads[h] = heads.get(h, 0) + 1
        rules.append((index[v], len(arcs), tuple(heads.items())))
    return rules


def _step(rule: tuple, chips: tuple, sign: int) -> tuple | None:
    """The count tuple after firing (sign 1) or unfiring (sign -1) by `rule`,
    or None when the move is illegal.  Firing needs the out-degree on the
    vertex; unfiring needs one chip per arc on every out-neighbor, the
    vertex itself included when it has a loop."""
    i, out, heads = rule
    if not out or (chips[i] < out if sign > 0 else any(chips[h] < k for h, k in heads)):
        return None
    row = list(chips)
    row[i] -= sign * out
    for h, k in heads:
        row[h] += sign * k
    return tuple(row)


def _arrangement(order, row: tuple) -> ChipArrangement:
    return ChipArrangement(dict(zip(order, row)))


def _move(g: Multigraph, arrangement: ChipArrangement, v, sign: int) -> ChipArrangement | None:
    row = _step(_rules(g, [v])[0], tuple(arrangement[w] for w in g.vertices), sign)
    return None if row is None else _arrangement(g.vertices, row)


def can_fire(g: Multigraph, arrangement: ChipArrangement, v) -> bool:
    return _move(g, arrangement, v, 1) is not None


def fire(g: Multigraph, arrangement: ChipArrangement, v) -> ChipArrangement:
    """Send one chip along every out-arc of v."""
    if not g.has_vertex(v):
        raise ChipError(f"cannot fire unknown vertex {v!r}")
    out = g.out_degree(v)
    if out == 0:
        raise ChipError(f"vertex {v!r} has no out-arcs and can never fire")
    if arrangement[v] < out:
        raise ChipError(f"vertex {v!r} holds {arrangement[v]} chips but needs {out} to fire")
    return _move(g, arrangement, v, 1)


def can_unfire(g: Multigraph, arrangement: ChipArrangement, v) -> bool:
    # every out-neighbor must return one chip per parallel arc; loops make
    # v its own out-neighbor, which keeps fire(unfire(s, v), v) = s exact
    return _move(g, arrangement, v, -1) is not None


def unfire(g: Multigraph, arrangement: ChipArrangement, v) -> ChipArrangement:
    """Pull one chip back along every out-arc of v (the inverse of fire)."""
    moved = _move(g, arrangement, v, -1)
    if moved is None:
        raise ChipError(f"cannot unfire vertex {v!r}: some out-neighbor lacks chips")
    return moved


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


def _sorted_moves(g: Multigraph, moves) -> tuple:
    """Moves by (from, to, fired vertex in `id_key` order)."""
    rank = {v: r for r, v in enumerate(sorted(g.vertices, key=id_key))}
    return tuple(sorted(moves, key=lambda m: (m[0], m[1], rank[m[2]])))


def build_game(g: Multigraph, start: ChipArrangement, cap: int = 100_000) -> GameGraph:
    """Breadth-first exploration of all arrangements reachable by firing.

    States are count tuples in vertex order: each is its own dedupe key,
    and the row list grows in breadth-first order."""
    _check_arrangement(g, start)
    order = g.vertices
    rules = list(zip(order, _rules(g, order)))
    rows = [tuple(start[v] for v in order)]
    index = {rows[0]: 0}
    moves = []
    capped = False
    for i, row in enumerate(rows):
        for v, rule in rules:
            nxt = _step(rule, row, 1)
            if nxt is None:
                continue
            j = index.get(nxt)
            if j is None:
                if len(rows) >= cap:
                    capped = True
                    continue
                j = index[nxt] = len(rows)
                rows.append(nxt)
            moves.append((i, j, v))
    moves = _sorted_moves(g, moves)
    if capped:
        return GameGraph(g, tuple(rows), moves, CAP_EXCEEDED)
    colored = ColoredDigraph.from_triples(len(rows), moves)
    verdict = CYCLIC if colored.order(1) is None else FINITE
    return GameGraph(g, tuple(rows), moves, verdict, colored)


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
    """Breadth-first closure under fire and unfire.  States at distance
    `cap` from the start are not expanded, and the walk stops once it holds
    more than `cap` states; either leaves the closure incomplete."""
    _check_arrangement(g, start)
    order = g.vertices
    rules = list(zip(order, _rules(g, order)))
    rows = [tuple(start[v] for v in order)]
    index = {rows[0]: 0}
    distance = [0]
    moves: set = set()
    complete = True
    for i, row in enumerate(rows):
        if len(rows) > cap:
            complete = False
            break
        if distance[i] >= cap:
            complete = False
            continue
        for v, rule in rules:
            for sign in (1, -1):
                nxt = _step(rule, row, sign)
                if nxt is None:
                    continue
                j = index.get(nxt)
                if j is None:
                    j = index[nxt] = len(rows)
                    rows.append(nxt)
                    distance.append(distance[i] + 1)
                moves.add((i, j, v) if sign > 0 else (j, i, v))
    moves = _sorted_moves(g, moves)
    colored = ColoredDigraph.from_triples(len(rows), moves)
    acyclic = colored.order(1) is not None
    return CompleteGame(g, tuple(rows), moves, complete, acyclic, colored)


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
