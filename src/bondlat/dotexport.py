"""Graphviz DOT rendering of cover digraphs and chip-firing games.

Output is deterministic: nodes in index order, edges in stored cover
order, edge colors assigned from a fixed palette by the sorted sequence
of distinct cover colors.  Diagrams grow upward (rankdir=BT) so the
unique minimum sits at the bottom, as Hasse diagrams are drawn.

Edge lines are filled one `%` per block of `jsonio.BLOCK_ROWS`, and labels
one "%d,%d,..." template each, so that little Python work is done per line.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .chipfire import GameGraph
from .graph import id_key
from .jsonio import triple_blocks
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
    edges: Iterable[tuple[int, int, object]],
    comments: Iterable[str],
) -> str:
    edges = list(edges)
    templates = {}  # one edge line template per distinct key
    for key in sorted({key for _, _, key in edges}, key=id_key):
        color = _PALETTE[len(templates) % len(_PALETTE)]
        attributes = f"[label={_quoted(str(key))}, color={_quoted(color)}];"
        templates[key] = "  n%d -> n%d " + attributes.replace("%", "%%") + "\n"
    lines = ["digraph {", "  rankdir=BT;", "  node [shape=box];"]
    lines += [f"  // {c}" for c in comments]
    lines += ["  n%d [label=%s];" % (i, _quoted(node_labels[i])) for i in range(count)]
    return "".join(["\n".join(lines), "\n", *triple_blocks(edges, templates), "}\n"])


def cover_digraph_dot(cd: CoverDigraph, node_labels: Sequence[str], comments: Iterable[str] = ()) -> str:
    """DOT text for a cover digraph; covers are labeled by their color."""
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
    order = game.graph.vertices
    template = ",".join(["%d"] * len(order))
    labels = [template % row for row in game.rows]
    head = [f"chips in vertex order: {', '.join(str(v) for v in order)}"]
    return _render(len(game.rows), labels, game.moves, list(head) + list(comments))
