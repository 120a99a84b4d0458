"""Graphviz DOT rendering of cover digraphs and chip-firing games.

Output is deterministic: nodes in index order, edges in stored cover
order, edge colors assigned from a fixed palette by the sorted sequence
of distinct cover colors.  Diagrams grow upward (rankdir=BT) so the
unique minimum sits at the bottom, as Hasse diagrams are drawn.

Edge lines are filled one `%` per block of `jsonio.BLOCK_ROWS`, and labels
one "%d,%d,..." template each, so that little Python work is done per line.
The `iter_` forms stream the text: the header, then blocks of node lines
and of edge lines.  `cover_digraph_dot` and `game_dot` join those pieces.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from operator import itemgetter

from .chipfire import GameGraph
from .graph import id_key
from .jsonio import in_blocks, triple_blocks
from .lattice import CoverDigraph

_PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
)


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render(
    count: int,
    node_labels: Sequence[str],
    edges: Sequence[tuple[int, int, object]],
    comments: Iterable[str],
) -> Iterator[str]:
    templates = {}  # one edge line template per distinct key
    for key in sorted(set(map(itemgetter(2), edges)), key=id_key):
        color = _PALETTE[len(templates) % len(_PALETTE)]
        attributes = f"[label={_quoted(str(key))}, color={_quoted(color)}];"
        templates[key] = "  n%d -> n%d " + attributes.replace("%", "%%") + "\n"
    yield "".join(["digraph {\n  rankdir=BT;\n  node [shape=box];\n", *(f"  // {c}\n" for c in comments)])
    for ids in in_blocks(range(count)):
        yield "".join(["  n%d [label=%s];\n" % (i, _quoted(node_labels[i])) for i in ids])
    yield from triple_blocks(edges, templates)
    yield "}\n"


def cover_digraph_dot(cd: CoverDigraph, node_labels: Sequence[str], comments: Iterable[str] = ()) -> str:
    """DOT text for a cover digraph; covers are labeled by their color."""
    return "".join(iter_cover_digraph_dot(cd, node_labels, comments))


def iter_cover_digraph_dot(cd: CoverDigraph, node_labels: Sequence[str], comments: Iterable[str] = ()) -> Iterator[str]:
    """`cover_digraph_dot` in pieces."""
    if len(node_labels) != cd.n:
        raise ValueError(f"{cd.n} elements but {len(node_labels)} labels")
    return _render(cd.n, node_labels, cd.covers, comments)


def bond_labels(cd: CoverDigraph, arc_order: Sequence, forced: Mapping | None = None) -> list[str]:
    """One label per element: comma-joined arc values in the given order,
    with the `forced` values of contracted arcs merged in."""
    template = ",".join(["%d"] * len(arc_order))
    return [template % row for row in cd.value_rows(arc_order, forced)]


def game_dot(game: GameGraph, comments: Iterable[str] = ()) -> str:
    """DOT text for a game's move digraph; moves are labeled by the fired
    vertex and states by their chip counts in vertex order."""
    return "".join(iter_game_dot(game, comments))


def iter_game_dot(game: GameGraph, comments: Iterable[str] = ()) -> Iterator[str]:
    """`game_dot` in pieces; the labels are made when the first is asked for."""
    order = game.graph.vertices
    template = ",".join(["%d"] * len(order))
    labels = [template % row for row in game.rows]
    head = [f"chips in vertex order: {', '.join(str(v) for v in order)}"]
    yield from _render(len(game.rows), labels, game.moves, head + list(comments))
