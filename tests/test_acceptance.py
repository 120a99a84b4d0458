"""Acceptance suite: one test per shipped guarantee, one printed line each.

Every test computes its verdict, prints a single
``[acceptance] criterion N: PASS/FAIL - detail`` line, appends it to
``ACCEPTANCE_LINES`` (conftest echoes them after the run), and only then
asserts.  All random batches are seeded, so reruns see identical
instances.
"""

import itertools
import json
import operator
import random
import subprocess
import sys
import time
from collections import Counter

from bondlat import (
    AlphaSpec,
    Arc,
    Bond,
    BondSystem,
    CapExceededError,
    ChipArrangement,
    FlowSpec,
    InfeasibleSystemError,
    Multigraph,
    Orientation,
    arc_value_range,
    brute_uld,
    build_game,
    canonical_uld_coloring,
    certify_game,
    certify_lld_cover,
    certify_uld_cover,
    color_tallies,
    encode_alpha_orientations,
    encode_c_orientations,
    encode_flows,
    enumerate_lattice,
    find_initial_bond,
    meet_irreducible_indices,
)

from util import (
    cyclic_u_digraph,
    m3_poset,
    n5_poset,
    oracle_firing_sequences,
    oracle_game,
    push_reachability,
    tension_bonds,
    tri_embedding,
    tri_graph,
    two_source_u_digraph,
)

ACCEPTANCE_LINES = []


def _record(number, ok, detail):
    line = f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# the shared random batch: 200 connected systems, every lattice <= 300
# elements and every capacity box <= 12000 points so the oracles stay fast


def _random_graph(rng, max_vertices=5, max_arcs=8):
    n = rng.randint(2, max_vertices)
    vertices = list(range(1, n + 1))
    order = vertices[:]
    rng.shuffle(order)
    arcs = []
    for i in range(1, n):
        tail, head = order[i - 1], order[i]
        if rng.random() < 0.5:
            tail, head = head, tail
        arcs.append(Arc(f"p{i}", tail, head))
    for j in range(rng.randint(0, max_arcs - (n - 1))):
        arcs.append(Arc(f"x{j}", rng.choice(vertices), rng.choice(vertices)))
    return Multigraph(vertices, arcs)


def _box_size(lower, upper):
    size = 1
    for a in lower:
        size *= upper[a] - lower[a] + 1
    return size


def _shrink_widest(lower, upper, reference):
    widest = max(sorted(lower, key=str), key=lambda a: upper[a] - lower[a])
    if upper[widest] > reference[widest]:
        upper[widest] -= 1
    else:
        lower[widest] += 1


def _random_case(rng):
    g = _random_graph(rng)
    reference = {a.id: rng.randint(-2, 2) for a in g.arcs}
    lower = {a: rng.randint(-2, reference[a]) for a in reference}
    upper = {a: rng.randint(reference[a], 2) for a in reference}
    forbidden = rng.choice(g.vertices)
    while True:
        if _box_size(lower, upper) > 12_000:
            _shrink_widest(lower, upper, reference)
            continue
        system = BondSystem(g, dict(lower), dict(upper), dict(reference), forbidden)
        reduced, cmap = system.reduce()
        try:
            cd = enumerate_lattice(reduced, cap=300)
        except CapExceededError:
            _shrink_widest(lower, upper, reference)
            continue
        return system, reduced, cmap, cd


_CASES = None


def _generated_cases():
    global _CASES
    if _CASES is None:
        rng = random.Random(73)
        _CASES = [_random_case(rng) for _ in range(200)]
    return _CASES


def test_criterion_1_enumeration_matches_box_oracle():
    begin = time.monotonic()
    matched = 0
    for system, reduced, cmap, cd in _generated_cases():
        arc_order = [a.id for a in system.graph.arcs]
        expected = {b.as_tuple(arc_order) for b in tension_bonds(system)}
        got = {cmap.expand(x).as_tuple(arc_order) for x in cd.elements}
        if got == expected:
            matched += 1
    elapsed = time.monotonic() - begin
    _record(
        1,
        matched == 200 and elapsed < 60,
        f"{matched}/200 random systems match the capacity-box oracle "
        f"through the contraction map ({elapsed:.1f}s)",
    )


def test_criterion_2_generated_lattices_certify_and_distribute():
    certified = brute_checked = failures = 0
    for _, _, _, cd in _generated_cases():
        colored = cd.to_colored_digraph()
        if not (certify_uld_cover(colored).ok and certify_lld_cover(colored).ok):
            failures += 1
            continue
        certified += 1
        if cd.n**3 <= 10_000:
            report = brute_uld(colored.closure)
            brute_checked += 1
            if not (report.is_lattice and report.is_uld and report.is_distributive):
                failures += 1
    _record(
        2,
        failures == 0 and certified == 200 and brute_checked > 0,
        f"{certified}/200 cover digraphs certified in both orientations; "
        f"{brute_checked} small ones brute-checked distributive",
    )


def test_criterion_3_meet_join_match_reachability_oracle():
    lattices = pairs = mismatches = 0
    for _, reduced, _, cd in _generated_cases():
        if cd.n > 200:
            continue
        lattices += 1
        arc_order = [a.id for a in reduced.graph.arcs]
        elements = list(cd.elements)
        reach = push_reachability(reduced, elements)
        n = cd.n
        below = [0] * n
        above = [0] * n
        for i in range(n):
            for j in range(n):
                if reach.get((i, j)):
                    below[j] |= 1 << i
                    above[i] |= 1 << j
        by_below = {below[i]: i for i in range(n)}
        by_above = {above[i]: i for i in range(n)}
        index_of = {elements[i].as_tuple(arc_order): i for i in range(n)}
        for i in range(n):
            for j in range(i, n):
                pairs += 1
                got_meet = index_of[reduced.meet(elements[i], elements[j]).as_tuple(arc_order)]
                got_join = index_of[reduced.join(elements[i], elements[j]).as_tuple(arc_order)]
                if got_meet != by_below.get(below[i] & below[j]):
                    mismatches += 1
                if got_join != by_above.get(above[i] & above[j]):
                    mismatches += 1
    _record(
        3,
        mismatches == 0 and lattices > 0,
        f"meet/join agree with the set-push reachability oracle on {pairs} "
        f"pairs across {lattices} lattices",
    )


def test_criterion_4_color_tallies_embed_and_join():
    checked = bad = 0
    for _, reduced, _, cd in _generated_cases():
        checked += 1
        tallies = color_tallies(cd)
        vertices = [v for v in reduced.graph.vertices if v != reduced.forbidden]
        for i, x in enumerate(cd.elements):
            # Counter equality reads a missing key as 0, so a colour that is
            # no pushable vertex counts as bad, and the rows below lose nothing
            if tallies[i] != reduced.push_counts(x):
                bad += 1
        poset = cd.to_colored_digraph().closure
        n = cd.n
        above = [0] * n
        for i in range(n):
            for j in range(n):
                if poset.leq(i, j):
                    above[i] |= 1 << j
        by_above = {above[i]: i for i in range(n)}
        # count tuples over the pushable vertices: dominance is componentwise
        # <=, and the join of two tallies is their componentwise max
        rows = [tuple(tallies[i][v] for v in vertices) for i in range(n)]
        key = {row: i for i, row in enumerate(rows)}
        for i, low in enumerate(rows):
            for j, high in enumerate(rows):
                if poset.leq(i, j) != all(map(operator.le, low, high)):
                    bad += 1
                if key.get(tuple(map(max, low, high))) != by_above.get(above[i] & above[j]):
                    bad += 1
    _record(
        4,
        bad == 0 and checked == 200,
        f"push-count tallies embed into dominance order and are join-closed "
        f"on all {checked} lattices",
    )


def test_criterion_5_canonical_recoloring_and_cover_criterion():
    recolored = bad = comparabilities = 0
    for _, _, _, cd in _generated_cases():
        irr = meet_irreducible_indices(cd)
        # the len(irr) <= 18 guard is this criterion's original gate, kept
        # as it was; the cover criterion below still runs on all
        if len(irr) <= 18:
            rebuilt = canonical_uld_coloring(cd.elements, [c[:2] for c in cd.covers])
            if not certify_uld_cover(rebuilt.to_colored_digraph()).ok:
                bad += 1
                continue
            recolored += 1
        poset = cd.to_colored_digraph().closure
        above_irr = [
            frozenset(m for m in irr if poset.leq(x, m)) for x in range(cd.n)
        ]
        covers = {c[:2] for c in cd.covers}
        for x in range(cd.n):
            for y in range(cd.n):
                if x == y or not poset.leq(x, y):
                    continue
                comparabilities += 1
                lost = len(above_irr[x] - above_irr[y])
                if (lost == 1) != ((x, y) in covers):
                    bad += 1
    _record(
        5,
        bad == 0 and recolored >= 150,
        f"stripped and recolored {recolored} lattices within brute reach; "
        f"the one-irreducible difference test separated covers from "
        f"{comparabilities} comparabilities on all 200",
    )


def test_criterion_6_counterexamples_rejected():
    m3 = brute_uld(m3_poset())
    n5 = brute_uld(n5_poset())
    cyc = certify_uld_cover(cyclic_u_digraph())
    two = certify_uld_cover(two_source_u_digraph())
    ok = (
        m3.is_lattice
        and not m3.is_uld
        and m3.uld_certificate is not None
        and n5.is_lattice
        and not n5.is_distributive
        and n5.distributive_witness is not None
        and not cyc.ok
        and cyc.status == "cyclic"
        and not two.ok
        and two.status == "no unique source"
    )
    _record(
        6,
        ok,
        "three-atom and pentagon lattices rejected with certificates; "
        f"fork-respecting cycle -> {cyc.status!r}, twin sources -> {two.status!r}",
    )


def test_criterion_7_instance_counts_and_round_trips():
    begin = time.monotonic()
    g = tri_graph()
    arc_order = ["a1", "a2", "a3"]
    problems = []

    # orientations with flow-difference 1 around the triangle, by hand:
    # flipping an arc turns its +1 traversal contribution into -1
    brute_c = {
        bits
        for bits in itertools.product((0, 1), repeat=3)
        if sum(1 - 2 * b for b in bits) == 1
    }
    family = encode_c_orientations(g, {"a3": 1})
    reduced, cmap = family.system.reduce()
    cd = enumerate_lattice(reduced)
    bonds = [cmap.expand(x) for x in cd.elements]
    got_c = {tuple(family.decode(b).flips[a] for a in arc_order) for b in bonds}
    if got_c != brute_c or len(bonds) != 3:
        problems.append("orientation family")
    if any(family.encode(family.decode(b)) != b for b in bonds):
        problems.append("orientation round trip")

    # out-degree one everywhere: exactly the two cyclic orientations
    brute_alpha = set()
    for bits in itertools.product((0, 1), repeat=3):
        outs = Counter()
        for bit, arc in zip(bits, g.arcs):
            outs[arc.head if bit else arc.tail] += 1
        if all(outs[v] == 1 for v in g.vertices):
            brute_alpha.add(bits)
    alpha = encode_alpha_orientations(AlphaSpec(tri_embedding(), {1: 1, 2: 1, 3: 1}))
    reduced, cmap = alpha.system.reduce()
    cd = enumerate_lattice(reduced)
    bonds = [cmap.expand(x) for x in cd.elements]
    oriented = set()
    for b in bonds:
        o = alpha.decode(b)
        bits = []
        for a in g.arcs:
            kept = next(r for r in o.as_multigraph().arcs if r.id == a.id)
            bits.append(0 if (kept.tail, kept.head) == (a.tail, a.head) else 1)
        oriented.add(tuple(bits))
    if oriented != brute_alpha or len(bonds) != 2:
        problems.append("out-degree family")
    if any(alpha.encode(alpha.decode(b)) != b for b in bonds):
        problems.append("out-degree round trip")

    # circulations in caps [0,1]: conservation checked arc-by-arc by hand
    brute_circ = set()
    for bits in itertools.product((0, 1), repeat=3):
        labeling = dict(zip(arc_order, bits))
        balanced = all(
            sum(labeling[a.id] for a in g.arcs if a.head == v)
            == sum(labeling[a.id] for a in g.arcs if a.tail == v)
            for v in g.vertices
        )
        if balanced:
            brute_circ.add(bits)
    flows = encode_flows(
        FlowSpec(tri_embedding(), {a: 0 for a in arc_order}, {a: 1 for a in arc_order}, {})
    )
    reduced, cmap = flows.system.reduce()
    cd = enumerate_lattice(reduced)
    bonds = [cmap.expand(x) for x in cd.elements]
    got_circ = {
        tuple(flows.decode(b)[a] for a in arc_order) for b in bonds
    }
    if got_circ != brute_circ or len(bonds) != 2:
        problems.append("circulation family")
    if any(flows.encode(flows.decode(b)) != b for b in bonds):
        problems.append("circulation round trip")

    elapsed = time.monotonic() - begin
    _record(
        7,
        not problems and elapsed < 10,
        f"triangle families count 3/2/2 against hand enumeration and "
        f"round-trip exactly ({elapsed:.1f}s)"
        + (f"; failing: {problems}" if problems else ""),
    )


def _random_game(rng):
    n = rng.randint(2, 4)
    vertices = list(range(1, n + 1))
    arcs = []
    for j in range(rng.randint(1, 6)):
        tail = rng.choice(vertices)
        head = rng.choice(vertices)
        if tail != head and rng.random() < 0.8:
            tail, head = min(tail, head), max(tail, head)
        arcs.append(Arc(f"e{j}", tail, head))
    chips = Counter(rng.choice(vertices) for _ in range(rng.randint(0, 6)))
    return Multigraph(vertices, arcs), ChipArrangement(dict(chips))


def test_criterion_8_chip_games_certify():
    rng = random.Random(41)
    finite = bad = attempts = 0
    while finite < 100 and attempts < 1500:
        attempts += 1
        g, start = _random_game(rng)
        game = build_game(g, start, cap=4000)
        if game.verdict != "finite":
            continue
        finite += 1
        certificate = certify_game(game)
        if not certificate.ok:
            bad += 1
            continue
        # the sequences walk the dict oracle's moves, not the library's move index
        _, moves, _ = oracle_game(g, dict(start), 4000)
        multisets = {frozenset(Counter(seq).items()) for seq in oracle_firing_sequences(moves)}
        if multisets != {frozenset(certificate.firing_counts[0].items())}:
            bad += 1
    spinner = Multigraph([1, 2], [Arc("f", 1, 2), Arc("g", 2, 1)])
    spun = build_game(spinner, ChipArrangement({1: 1}), cap=100)
    _record(
        8,
        finite >= 100 and bad == 0 and spun.verdict == "cyclic",
        f"{finite} finite games certified with identical firing multisets "
        f"along every maximal sequence of the oracle's game, equal to the "
        f"certified firing counts; two-cycle detected {spun.verdict!r}",
    )


def test_criterion_9_infeasibility_certificates_and_ranges():
    rng = random.Random(97)
    feasible = infeasible = bad = ranged = 0
    for _ in range(150):
        g = _random_graph(rng)
        reference = {a.id: rng.randint(-2, 2) for a in g.arcs}
        lower, upper = {}, {}
        for a in g.arcs:
            lo = rng.randint(-2, 2)
            lower[a.id] = lo
            upper[a.id] = rng.randint(lo, 2)
        system = BondSystem(g, lower, upper, reference, min(g.vertices))
        try:
            bond = find_initial_bond(system)
        except InfeasibleSystemError as exc:
            infeasible += 1
            required = sum(sign * reference[a] for a, sign in exc.cycle.items())
            wmin = sum(lower[a] if sign > 0 else -upper[a] for a, sign in exc.cycle.items())
            wmax = sum(upper[a] if sign > 0 else -lower[a] for a, sign in exc.cycle.items())
            genuine = (
                required == exc.required
                and wmin == exc.window_min
                and wmax == exc.window_max
                and not wmin <= required <= wmax
            )
            if not genuine:
                bad += 1
            continue
        feasible += 1
        if not system.check_bond(bond).ok:
            bad += 1
            continue
        if _box_size(lower, upper) <= 5000:
            ranged += 1
            values = {a.id: [] for a in g.arcs}
            for b in tension_bonds(system):
                for a in values:
                    values[a].append(b.value(a))
            for a in values:
                if arc_value_range(system, a) != (min(values[a]), max(values[a])):
                    bad += 1
    _record(
        9,
        bad == 0 and feasible >= 25 and infeasible >= 25,
        f"{infeasible} infeasibility certificates re-verified by hand, "
        f"{feasible} feasible starts validated, value ranges brute-matched "
        f"on {ranged} systems",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    tri_doc = {
        "vertices": [1, 2, 3],
        "arcs": [
            {"id": "a1", "tail": 1, "head": 2},
            {"id": "a2", "tail": 2, "head": 3},
            {"id": "a3", "tail": 3, "head": 1},
        ],
        "lower": {"a1": 0, "a2": 0, "a3": 0},
        "upper": {"a1": 1, "a2": 1, "a3": 1},
        "reference": {"a1": 1, "a2": 0, "a3": 0},
        "forbidden": 1,
    }
    chip_doc = {
        "vertices": [1, 2, 3],
        "arcs": [
            {"id": "e1", "tail": 1, "head": 2},
            {"id": "e2", "tail": 1, "head": 3},
            {"id": "e3", "tail": 2, "head": 3},
        ],
        "chips": {"1": 2},
    }
    jobs = [
        ("enumerate", tri_doc, ["--dot"]),
        ("lattice", tri_doc, ["--dot", "--coords", "pushcount"]),
        ("chipfire", chip_doc, ["--dot"]),
    ]
    stable = True
    for index, (command, doc, flags) in enumerate(jobs):
        source = tmp_path / f"in{index}.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        seen = []
        for attempt in range(2):
            dot = tmp_path / f"dot{index}_{attempt}"
            argv = [sys.executable, "-m", "bondlat", command, "--input", str(source)]
            for flag in flags:
                argv.append(flag)
                if flag == "--dot":
                    argv.append(str(dot))
            proc = subprocess.run(argv, capture_output=True)
            seen.append((proc.returncode, proc.stdout, dot.read_bytes()))
        if seen[0] != seen[1]:
            stable = False
    _record(
        10,
        stable,
        "enumerate/lattice/chipfire reruns produced byte-identical JSON and DOT",
    )
