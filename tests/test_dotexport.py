"""DOT rendering against the line-by-line oracle, past one block of edges."""

from bondlat import Arc, ChipArrangement, Multigraph, enumerate_lattice
from bondlat.chipfire import build_game
from bondlat.dotexport import bond_labels, cover_digraph_dot, game_dot
from bondlat.instances import encode_potentials
from bondlat.jsonio import BLOCK_ROWS

from util import first_difference, oracle_dot, oracle_labels

# a vertex id that the DOT templates and the quoting both have to carry
ODD = 'v%d"5'


def odd_grid(rows: int, cols: int) -> Multigraph:
    """A grid with arcs going right and down; one vertex is named `ODD`,
    the rest are ints and plain strings."""
    names = [ODD if k == 3 else (k if k % 2 else f"s{k}") for k in range(rows * cols)]
    arcs = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                arcs.append(Arc(f"h{i}_{j}", names[i * cols + j], names[i * cols + j + 1]))
            if i + 1 < rows:
                arcs.append(Arc(f"v{i}_{j}", names[i * cols + j], names[(i + 1) * cols + j]))
    return Multigraph(names, arcs)


def test_cover_digraph_dot_is_the_oracle_past_two_blocks():
    g = odd_grid(2, 5)
    windows = {a.id: -1 for a in g.arcs}
    system = encode_potentials(g, windows, {a: 1 for a in windows}, 1).system
    reduced, cmap = system.reduce()
    cd = enumerate_lattice(reduced)
    assert len(cd.covers) > 2 * BLOCK_ROWS + 1 and ODD in {c for _, _, c in cd.covers}
    order = [a.id for a in g.arcs]
    labels = bond_labels(cd, order, cmap.forced)
    assert labels == oracle_labels([x.value(a) for a in order] for x in cd.elements)
    comments = ["arc values", 'a "quoted" 100% comment']
    expected = oracle_dot(cd.n, labels, cd.covers, comments)
    assert first_difference(cover_digraph_dot(cd, labels, comments), expected) is None


def test_game_dot_is_the_oracle_past_two_blocks():
    vertices = [ODD, 2, "b", 0, "sink"]
    arcs = [Arc(f"a{i}", vertices[i], vertices[i + 1]) for i in range(4)] + [Arc("x", ODD, "b")]
    game = build_game(Multigraph(vertices, arcs), ChipArrangement({ODD: 18}), cap=100_000)
    assert len(game.moves) > 2 * BLOCK_ROWS + 1
    order = game.graph.vertices
    labels = oracle_labels([state[v] for v in order] for state in game.states)
    head = [f"chips in vertex order: {', '.join(str(v) for v in order)}"]
    expected = oracle_dot(len(game.rows), labels, game.moves, head + ["100%"])
    assert first_difference(game_dot(game, ["100%"]), expected) is None
