"""Randomized invariant checks driven by hypothesis.

Graphs are assembled from drawn edge lists on a spanning path, so every
example is connected by construction; systems place the reference inside
every window, so every example is feasible by construction.  The
properties here are the structural facts the deterministic tests pin on
hand-sized examples: cut/cycle orthogonality, push invariants, lattice
laws including distributivity, chip conservation, and JSON round trips.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from bondlat import (
    Arc,
    Bond,
    BondSystem,
    CapExceededError,
    ChipArrangement,
    Multigraph,
    brute_uld,
    build_game,
    can_fire,
    certify_game,
    certify_uld_cover,
    enumerate_lattice,
    fire,
    flow_difference,
    fundamental_cycles,
    spanning_tree,
    vertex_cut,
)
from bondlat.cli import main
from bondlat.jsonio import (
    InputFormatError,
    dumps,
    graph_json,
    parse_colored_digraph,
    parse_graph,
    parse_system,
    system_json,
)

from util import tension_bonds


@st.composite
def connected_graphs(draw, max_extra=4):
    n = draw(st.integers(2, 5))
    vertices = list(range(1, n + 1))
    arcs = []
    for i in range(1, n):
        if draw(st.booleans()):
            arcs.append(Arc(f"p{i}", i + 1, i))
        else:
            arcs.append(Arc(f"p{i}", i, i + 1))
    for j in range(draw(st.integers(0, max_extra))):
        tail = draw(st.integers(1, n))
        head = draw(st.integers(1, n))  # tail == head makes a loop, allowed
        arcs.append(Arc(f"x{j}", tail, head))
    return Multigraph(vertices, arcs)


@st.composite
def feasible_systems(draw, max_slack=2, max_extra=4):
    g = draw(connected_graphs(max_extra=max_extra))
    reference, lower, upper = {}, {}, {}
    for a in g.arcs:
        r = draw(st.integers(-2, 2))
        reference[a.id] = r
        lower[a.id] = r - draw(st.integers(0, max_slack))
        upper[a.id] = r + draw(st.integers(0, max_slack))
    return BondSystem(g, lower, upper, reference, 1)


@st.composite
def dag_graphs(draw):
    n = draw(st.integers(2, 4))
    arcs = []
    for j in range(draw(st.integers(1, 5))):
        tail = draw(st.integers(1, n - 1))
        arcs.append(Arc(f"e{j}", tail, draw(st.integers(tail + 1, n))))
    return Multigraph(list(range(1, n + 1)), arcs)


@given(data=st.data())
def test_cut_cycle_orthogonality(data):
    g = data.draw(connected_graphs())
    inside = {v for v in g.vertices if data.draw(st.booleans())}
    assume(inside and inside != set(g.vertices))
    cut = vertex_cut(g, inside)
    sigma = {a: 1 for a in cut.forward}
    sigma.update({a: -1 for a in cut.backward})
    for cycle in fundamental_cycles(g, spanning_tree(g)):
        assert sum(sign * sigma.get(a, 0) for a, sign in cycle.items()) == 0


@given(data=st.data())
def test_legal_push_preserves_bond_and_targets(data):
    s = data.draw(feasible_systems())
    x = Bond(dict(s.reference))
    inside = {
        v for v in s.graph.vertices if v != s.forbidden and data.draw(st.booleans())
    }
    assume(s.is_legal_push(x, inside))
    y = s.push(x, inside)
    assert s.is_bond(y)
    for cycle, target in zip(s.cycles, s.targets):
        assert flow_difference(y, cycle) == target


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lattice_laws_and_distributivity(data):
    s = data.draw(feasible_systems())
    reduced, _ = s.reduce()
    try:
        cd = enumerate_lattice(reduced, cap=200)
    except CapExceededError:
        assume(False)
    x = data.draw(st.sampled_from(cd.elements))
    y = data.draw(st.sampled_from(cd.elements))
    z = data.draw(st.sampled_from(cd.elements))
    meet, join, leq = reduced.meet, reduced.join, reduced.leq
    assert meet(x, y) == meet(y, x)
    assert join(x, y) == join(y, x)
    assert meet(x, meet(y, z)) == meet(meet(x, y), z)
    assert join(x, join(y, z)) == join(join(x, y), z)
    assert join(x, meet(x, y)) == x
    assert meet(x, join(x, y)) == x
    assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
    assert leq(x, y) == (meet(x, y) == x)
    if leq(x, y) and leq(y, x):
        assert x == y


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feasible_systems(max_slack=1, max_extra=3))
def test_enumeration_matches_box_oracle(s):
    expected = {frozenset(b.values.items()) for b in tension_bonds(s)}
    reduced, cmap = s.reduce()
    cd = enumerate_lattice(reduced, cap=10_000)
    got = {frozenset(cmap.expand(x).values.items()) for x in cd.elements}
    assert got == expected


@given(data=st.data())
def test_firing_conserves_chips(data):
    g = data.draw(connected_graphs())
    current = ChipArrangement({v: data.draw(st.integers(0, 3)) for v in g.vertices})
    total = current.total()
    for _ in range(20):
        options = [v for v in g.vertices if can_fire(g, current, v)]
        if not options:
            break
        current = fire(g, current, data.draw(st.sampled_from(options)))
        assert current.total() == total


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_dag_games_terminate_and_certify(data):
    g = data.draw(dag_graphs())
    start = ChipArrangement({v: data.draw(st.integers(0, 3)) for v in g.vertices})
    game = build_game(g, start, cap=5000)
    assert game.verdict == "finite"
    assert certify_game(game).ok


@given(connected_graphs())
def test_graph_json_round_trip(g):
    assert parse_graph(json.loads(dumps(graph_json(g)))) == g


@given(feasible_systems())
def test_system_json_round_trip(s):
    parsed = parse_system(json.loads(dumps(system_json(s))))
    assert parsed.graph == s.graph
    assert parsed.lower == s.lower
    assert parsed.upper == s.upper
    assert parsed.reference == s.reference
    assert parsed.forbidden == s.forbidden


@st.composite
def colored_digraph_docs(draw):
    """check-uld documents on at most 6 vertices.

    Self-loops, parallel arcs, cycles and disconnected parts all occur.
    Most examples hang every vertex off an earlier one and point the
    extra arcs to later vertices, so connected acyclic digraphs with a
    unique source, and with them ULD verdicts, are common.  Some
    documents leave their first arc uncolored, which makes them malformed.
    """
    n = draw(st.integers(0, 6))
    rooted = draw(st.integers(0, 2)) > 0
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if rooted else []
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        tail = draw(st.integers(0, n - 2 if rooted else n - 1))
        head = draw(st.integers(tail + 1 if rooted else 0, n - 1))
        pairs.append((tail, head))
    arcs, colors = [], {}
    for k, (tail, head) in enumerate(pairs):
        arcs.append({"id": f"a{k}", "tail": tail, "head": head})
        colors[f"a{k}"] = draw(st.integers(0, 2))
    if arcs and draw(st.integers(0, 9)) == 5:
        del colors["a0"]
    return {"vertices": list(range(n)), "arcs": arcs, "colors": colors}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(colored_digraph_docs())
def test_check_uld_exits_cleanly_and_agrees_with_brute_force(doc):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        source, sink = Path(tmp) / "in.json", Path(tmp) / "out.json"
        source.write_text(dumps(doc), encoding="utf-8")
        with contextlib.redirect_stderr(stderr):
            code = main(["check-uld", "--input", str(source), "--output", str(sink)])
        payload = json.loads(sink.read_text(encoding="utf-8")) if code != 2 else None
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    try:
        verdict = certify_uld_cover(parse_colored_digraph(doc))
    except InputFormatError:
        assert code == 2
        return
    event(verdict.status)
    assert payload["verdict"] == verdict.status
    assert code == (0 if verdict.ok else 1)
    if verdict.status == "uld":
        report = brute_uld(verdict.poset)
        assert report.is_lattice and report.is_uld
