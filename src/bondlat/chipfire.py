"""Chip-firing games on directed multigraphs.

A vertex holding at least as many chips as its out-degree (and at least one
out-arc) may fire, sending one chip along every out-arc; loops return their
chips.  The reachable arrangements with moves colored by the fired vertex
form a digraph whose certification mirrors the bond-lattice machinery: a
finite game has a unique final arrangement and every maximal firing
sequence fires the same multiset of vertices.

The bidirectional closure also walks unfirings (pulling one chip back along
every out-arc), recorded as reversed fire moves.  Its order is generally
only a meet-semilattice-like poset; `unique_minimal_representation_report`
checks the one property that survives: every arrangement is the unique
maximal lower bound of a unique minimal set of meet-irreducibles.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .checker import (
    ColoredDigraph,
    CoverVerdict,
    FinitePoset,
    PosetError,
    _find_directed_cycle,
    certify_uld_cover,
    meet_representations,
)
from .graph import Multigraph, id_key
from .lattice import TallyError, color_tallies

FINITE = "finite"
CYCLIC = "cyclic"
CAP_EXCEEDED = "cap exceeded"


class ChipError(ValueError):
    """Illegal chip-firing move or malformed arrangement."""


@dataclass(frozen=True)
class ChipArrangement:
    """Nonnegative chip counts on every vertex of a game graph."""

    chips: Mapping

    def count(self, v) -> int:
        return self.chips.get(v, 0)

    def total(self) -> int:
        return sum(self.chips.values())

    def as_tuple(self, vertex_order: Iterable) -> tuple:
        return tuple(self.chips.get(v, 0) for v in vertex_order)

    def __eq__(self, other):
        if not isinstance(other, ChipArrangement):
            return NotImplemented
        mine = {v: n for v, n in self.chips.items() if n}
        theirs = {v: n for v, n in other.chips.items() if n}
        return mine == theirs


def _check_arrangement(g: Multigraph, arrangement: ChipArrangement):
    for v, n in arrangement.chips.items():
        if not g.has_vertex(v):
            raise ChipError(f"arrangement places chips on unknown vertex {v!r}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ChipError(f"vertex {v!r} must hold a nonnegative integer number of chips")


def can_fire(g: Multigraph, arrangement: ChipArrangement, v) -> bool:
    out = g.out_degree(v)
    return out >= 1 and arrangement.count(v) >= out


def fire(g: Multigraph, arrangement: ChipArrangement, v) -> ChipArrangement:
    """Send one chip along every out-arc of v."""
    if not g.has_vertex(v):
        raise ChipError(f"cannot fire unknown vertex {v!r}")
    out = g.out_degree(v)
    if out == 0:
        raise ChipError(f"vertex {v!r} has no out-arcs and can never fire")
    if arrangement.count(v) < out:
        raise ChipError(
            f"vertex {v!r} holds {arrangement.count(v)} chips but needs {out} to fire"
        )
    chips = dict(arrangement.chips)
    chips[v] = chips.get(v, 0) - out
    for arc in g.out_arcs(v):
        chips[arc.head] = chips.get(arc.head, 0) + 1
    return ChipArrangement(chips)


def can_unfire(g: Multigraph, arrangement: ChipArrangement, v) -> bool:
    # every out-neighbor must return one chip per parallel arc; loops make
    # v its own out-neighbor, which keeps fire(unfire(s, v), v) = s exact
    out = g.out_degree(v)
    if out == 0:
        return False
    needed = Counter(arc.head for arc in g.out_arcs(v))
    return all(arrangement.count(w) >= k for w, k in needed.items())

def unfire(g: Multigraph, arrangement: ChipArrangement, v) -> ChipArrangement:
    """Pull one chip back along every out-arc of v (the inverse of fire)."""
    if not can_unfire(g, arrangement, v):
        raise ChipError(f"cannot unfire vertex {v!r}: some out-neighbor lacks chips")
    chips = dict(arrangement.chips)
    chips[v] = chips.get(v, 0) + g.out_degree(v)
    for arc in g.out_arcs(v):
        chips[arc.head] = chips.get(arc.head, 0) - 1
    return ChipArrangement(chips)


@dataclass(frozen=True)
class GameGraph:
    """Reachable arrangements and fire moves from a start arrangement.

    Moves are (from index, to index, fired vertex).  `verdict` is "finite"
    (all states explored, no directed cycle), "cyclic", or "cap exceeded".
    """

    graph: Multigraph
    states: tuple
    moves: tuple
    verdict: str
    colored: ColoredDigraph | None = field(default=None, repr=False, compare=False)

    @property
    def complete(self) -> bool:
        return self.verdict != CAP_EXCEEDED

    def terminal_index(self) -> int:
        targets = {m[0] for m in self.moves}
        stuck = [i for i in range(len(self.states)) if i not in targets]
        if len(stuck) != 1:
            raise ChipError(f"expected a unique final arrangement, found {len(stuck)}")
        return stuck[0]

    def to_colored_digraph(self) -> ColoredDigraph:
        """The move index `build_game` made, or a new one for a hand-built game."""
        return self.colored or ColoredDigraph.from_triples(len(self.states), self.moves)


def build_game(g: Multigraph, start: ChipArrangement, cap: int = 100_000) -> GameGraph:
    """Breadth-first exploration of all arrangements reachable by firing."""
    _check_arrangement(g, start)
    order = g.vertices
    key = start.as_tuple(order)
    states = [start]
    index = {key: 0}
    moves = []
    queue = deque([0])
    capped = False
    while queue:
        i = queue.popleft()
        current = states[i]
        for v in order:
            if not can_fire(g, current, v):
                continue
            nxt = fire(g, current, v)
            k = nxt.as_tuple(order)
            if k not in index:
                if len(states) >= cap:
                    capped = True
                    continue
                index[k] = len(states)
                states.append(nxt)
                queue.append(index[k])
            moves.append((i, index[k], v))
    moves = tuple(sorted(moves, key=lambda m: (m[0], m[1], id_key(m[2]))))
    if capped:
        return GameGraph(g, tuple(states), moves, CAP_EXCEEDED)
    colored = ColoredDigraph.from_triples(len(states), moves)
    verdict = CYCLIC if _find_directed_cycle(colored.out) else FINITE
    return GameGraph(g, tuple(states), moves, verdict, colored)


@dataclass(frozen=True)
class GameCertificate:
    """Certification of a finite game's move digraph."""

    verdict: CoverVerdict
    terminal: ChipArrangement
    firing_counts: tuple           # per state: Counter of fires on any maximal run; () if they differ
    multisets_consistent: bool
    multiset_witness: object       # (state, fires, other fires) when two runs differ

    @property
    def ok(self) -> bool:
        return self.verdict.ok and self.multisets_consistent


def certify_game(game: GameGraph) -> GameCertificate:
    """Certify the move digraph and the run-invariance of firing multisets.

    The firing multiset of a state is its color tally in the reversed move
    digraph, whose unique source is the terminal arrangement; a state
    whose moves predict different multisets is the witness.
    """
    if game.verdict != FINITE:
        raise ChipError(f"only finite games can be certified (verdict: {game.verdict})")
    cd = game.to_colored_digraph()
    verdict = certify_uld_cover(cd)
    terminal = game.states[game.terminal_index()]
    try:
        counts = tuple(Counter(t.multiplicities) for t in color_tallies(cd.reversed()))
    except TallyError as exc:
        return GameCertificate(verdict, terminal, (), False, exc.witness)
    return GameCertificate(verdict, terminal, counts, True, None)


def maximal_firing_sequences(game: GameGraph, start: int = 0, limit: int = 50_000):
    """Yield every maximal firing sequence from a state, as vertex tuples.

    Depth-first; raises ChipError past `limit` sequences.  Intended for
    exhaustive cross-checks on small games.
    """
    out = game.to_colored_digraph().out
    produced = 0
    stack: list[tuple[int, tuple]] = [(start, ())]
    while stack:
        i, prefix = stack.pop()
        if not out[i]:
            produced += 1
            if produced > limit:
                raise ChipError(f"more than {limit} maximal firing sequences")
            yield prefix
            continue
        for _, j, _, v in reversed(out[i]):
            stack.append((j, prefix + (v,)))


@dataclass(frozen=True)
class CompleteGame:
    """Closure of a start arrangement under both fire and unfire moves.

    All moves are stored in fire direction.  `complete` is False when the
    radius or state cap interrupted the walk.
    """

    graph: Multigraph
    states: tuple
    moves: tuple
    complete: bool
    acyclic: bool
    colored: ColoredDigraph | None = field(default=None, repr=False, compare=False)

    def to_colored_digraph(self) -> ColoredDigraph:
        return self.colored or ColoredDigraph.from_triples(len(self.states), self.moves)

    def to_poset(self) -> FinitePoset:
        if not self.acyclic:
            raise PosetError("complete game digraph is cyclic; it induces no order")
        return FinitePoset.from_covers(tuple(range(len(self.states))), [(i, j) for i, j, _ in self.moves])


def build_complete_game(
    g: Multigraph,
    start: ChipArrangement,
    radius: int = 100_000,
    state_cap: int = 100_000,
) -> CompleteGame:
    """Breadth-first closure under fire and unfire up to a move radius."""
    _check_arrangement(g, start)
    order = g.vertices
    states = [start]
    index = {start.as_tuple(order): 0}
    distance = [0]
    moves: set = set()
    queue = deque([0])
    complete = True

    def register(state) -> int:
        k = state.as_tuple(order)
        j = index.get(k)
        if j is None:
            j = len(states)
            index[k] = j
            states.append(state)
            distance.append(distance[i] + 1)
            queue.append(j)
        return j

    while queue:
        i = queue.popleft()
        if len(states) > state_cap:
            complete = False
            break
        if distance[i] >= radius:
            complete = False
            continue
        current = states[i]
        for v in order:
            if can_fire(g, current, v):
                moves.add((i, register(fire(g, current, v)), v))
            if can_unfire(g, current, v):
                moves.add((register(unfire(g, current, v)), i, v))
    moves = tuple(sorted(moves, key=lambda m: (m[0], m[1], id_key(m[2]))))
    colored = ColoredDigraph.from_triples(len(states), moves)
    acyclic = _find_directed_cycle(colored.out) is None
    return CompleteGame(g, tuple(states), moves, complete, acyclic, colored)


@dataclass(frozen=True)
class RepresentationReport:
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
    """Run the representation check on a fully explored, acyclic closure."""
    if not game.complete:
        raise ChipError(
            "closure exploration hit its cap; the representation check needs the whole poset"
        )
    return unique_minimal_representation_report(game.to_poset())
