"""Command-line front end.

Every subcommand reads one JSON document (--input, default stdin), writes
one JSON document (--output, default stdout), and exits 0 on success, 1 on
a domain rejection (infeasible system, failed certification, infinite
game; the verdict is still written), or 2 on malformed input (not UTF-8,
not JSON, or off the schema) or an output path that cannot be written.
Handlers return a verdict's own exit code and raise every rejection;
`main` maps each rejection to exit 1 and its verdict through one table,
`_REJECTIONS`.  The domain modules are imported, and that table built,
on the first `main` call after its arguments are parsed, or when a
domain name is first read from this module, so `--help` loads none of
them.  Outputs are deterministic byte-for-byte and compose: `reduce`
output feeds `enumerate`, encoder outputs feed any system-taking
subcommand.  Output is streamed: each piece of `jsonio.iterdumps` is
written as it is made, and a --dot file is rendered, a piece at a time,
only after the JSON is written, so no whole-output string is ever held.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import nullcontext, suppress


def _cli_id(text: str):
    """Vertex/arc ids on the command line: integer-looking means integer."""
    try:
        return int(text)
    except ValueError:
        return text


def _load(path: str):
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        raise InputFormatError(path, f"cannot read input: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(path, f"input is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if path != "-":  # newlines as a text-mode open() gives them; POSIX stdin keeps "\r"
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return jsonio.loads(text)


_WRITE_SLICE = 1 << 16  # characters per write, so no piece is encoded whole


def _emit(path: str, pieces, stdout: bool = True):
    """Write each text of `pieces` as it is made to `path`, or to stdout
    for "-" when `stdout`."""
    try:
        with nullcontext(sys.stdout) if stdout and path == "-" else open(path, "w", encoding="utf-8") as handle:
            for text in pieces:
                for start in range(0, len(text), _WRITE_SLICE):
                    handle.write(text[start : start + _WRITE_SLICE])
    except OSError as exc:
        raise OSError(f"{path}: cannot write output: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit code, payload, a generator of DOT
# pieces or None) and raises the rejections that `_REJECTIONS` maps


def _cmd_reduce(args, doc):
    system = jsonio.parse_system(doc, args.forbidden)
    reduced, cmap = system.reduce()
    payload = jsonio.system_json(reduced)
    payload["contraction"] = jsonio.contraction_json(cmap)
    return 0, payload, None


def _cmd_find_bond(args, doc):
    system = jsonio.parse_system(doc, args.forbidden)
    bond = find_initial_bond(system)
    return 0, {"bond": jsonio.bond_json(bond, system.graph)}, None


def _enumerate_component(system, cap, analyze):
    reduced, cmap = system.reduce()
    cd = enumerate_lattice(reduced, cap=cap)
    payload = {
        "count": cd.n,
        **jsonio.cover_digraph_json(cd, cmap.forced),
        "contraction": jsonio.contraction_json(cmap),
    }
    ok = True
    if analyze:
        colored = cd.to_colored_digraph()
        uld = certify_uld_cover(colored)
        lld = certify_lld_cover(colored)
        payload["minimum"] = colored.end(1)
        payload["maximum"] = colored.end(0)
        payload["meet_irreducibles"] = list(meet_irreducible_indices(cd))
        payload["uld"] = jsonio.cover_verdict_json(uld)
        payload["lld"] = jsonio.cover_verdict_json(lld)
        payload["distributive"] = uld.ok and lld.ok
        ok = uld.ok and lld.ok
    return payload, reduced, cmap, cd, ok


def _component_dot(args, system, reduced, cmap, cd):
    if args.coords == "pushcount":
        # covers are pushes colored by the pushed vertex, so an element's
        # color tally is its push counts from the minimum
        order = reduced.pushable_vertices()
        labels = [",".join(str(t[v]) for v in order) for t in color_tallies(cd)]
        comments = [
            f"push counts in vertex order: {', '.join(str(v) for v in order)}",
            f"forbidden vertex: {reduced.forbidden}",
        ]
    else:
        arc_order = [a.id for a in system.graph.arcs]
        labels = bond_labels(cd, arc_order, cmap.forced)
        comments = [f"arc values in order: {', '.join(str(a) for a in arc_order)}"]
    yield from iter_cover_digraph_dot(cd, labels, comments)


def _run_enumerate(args, doc, analyze):
    systems = jsonio.parse_systems(doc, args.forbidden)
    if len(systems) > 1 and args.dot:
        raise InputFormatError("", "DOT export needs a connected input")
    built = [_enumerate_component(system, args.cap, analyze) for system in systems]
    if len(built) == 1:
        payload, reduced, cmap, cd, ok = built[0]
        dot = _component_dot(args, systems[0], reduced, cmap, cd) if args.dot else None
        return (0 if ok else 1), payload, dot
    product = 1
    components = []
    for system, (payload, *_rest, ok) in zip(systems, built):
        product *= payload["count"]
        entry = {"vertices": list(system.graph.vertices), "forbidden": system.forbidden}
        entry.update(payload)
        components.append(entry)
    all_ok = all(item[-1] for item in built)
    payload = {"product_size": product, "components": components}
    return (0 if all_ok else 1), payload, None


def _cmd_order_op(args, doc, op):
    system = jsonio.parse_system(doc, args.forbidden)
    x, y = (jsonio.parse_bond(doc, name, system.graph) for name in "xy")
    with suppress(GraphError):  # raised by a potential that does not fit; the reports below name it
        if system.in_windows(x) and system.in_windows(y):
            result = getattr(system, op)(x, y)  # one walk per potential, on the parsed system: no reduce
            return 0, {op: result if op == "leq" else jsonio.bond_json(result, system.graph)}, None
    name, report = next((name, r) for name, r in zip("xy", map(system.check_bond, (x, y))) if not r.ok)
    return 1, {"verdict": "not a bond", "which": name, "report": jsonio.validity_json(report)}, None


def _cmd_check_uld(args, doc):
    cd = jsonio.parse_colored_digraph(doc)
    verdict = certify_uld_cover(cd)
    return (0 if verdict.ok else 1), jsonio.cover_verdict_json(verdict), None


def _cmd_check_poset(args, doc):
    poset = jsonio.parse_poset(doc)
    report = brute_uld(poset)
    ok = report.is_lattice and report.is_uld
    return (0 if ok else 1), jsonio.record_json(report), None


def _cmd_c_orient(args, doc):
    g = jsonio.parse_graph(doc)
    tree = spanning_tree(g)
    non_tree = [a.id for a in g.arcs if a.id not in tree]
    targets = jsonio.parse_arc_subset_map(doc, "targets", non_tree)
    forbidden = jsonio.parse_id(doc, "forbidden", args.forbidden)
    family = encode_c_orientations(g, targets, forbidden)
    payload = jsonio.system_json(family.system)
    payload["decode"] = {
        "kind": "c-orientation",
        "rule": "an arc is reversed exactly when its value is 1",
        "targets": {str(a): targets[a] for a in sorted(targets, key=id_key)},
    }
    return 0, payload, None


def _cmd_flows(args, doc):
    embedding = jsonio.parse_embedding(doc)
    lower = jsonio.parse_arc_map(doc, "lower", embedding.host)
    upper = jsonio.parse_arc_map(doc, "upper", embedding.host)
    excess = (
        jsonio.parse_vertex_map(doc, "excess", embedding.host, partial=True)
        if isinstance(doc, dict) and "excess" in doc
        else {}
    )
    family = encode_flows(FlowSpec(embedding, lower, upper, excess), args.unbounded_face)
    payload = jsonio.system_json(family.system)
    payload["decode"] = {
        "kind": "flow",
        "unbounded_face": args.unbounded_face,
        "faces": [[[a, d] for a, d in walk.darts] for walk in family.dual.faces],
        "rule": "dual arc ids equal primal arc ids; a bond value is that arc's flow",
    }
    return 0, payload, None


def _cmd_alpha(args, doc):
    embedding = jsonio.parse_embedding(doc)
    degrees = jsonio.parse_vertex_map(doc, "out_degrees", embedding.host)
    total = sum(degrees.values())
    if total != len(embedding.host.arcs):
        payload = {
            "verdict": "degree sum mismatch",
            "total": total,
            "edges": len(embedding.host.arcs),
        }
        return 1, payload, None
    family = encode_alpha_orientations(AlphaSpec(embedding, degrees), args.unbounded_face)
    payload = jsonio.system_json(family.system)
    payload["decode"] = {
        "kind": "alpha-orientation",
        "unbounded_face": args.unbounded_face,
        "reference": jsonio.graph_json(family.reference),
        "rule": "an arc of the reference graph is reversed exactly when its value is 1",
    }
    return 0, payload, None


def _cmd_potentials(args, doc):
    g = jsonio.parse_graph(doc)
    lower = jsonio.parse_arc_map(doc, "lower", g)
    upper = jsonio.parse_arc_map(doc, "upper", g)
    anchor = jsonio.parse_id(doc, "anchor", jsonio.parse_id(doc, "forbidden", args.forbidden))
    if anchor is None:
        anchor = min(g.vertices, key=id_key)
    if not g.has_vertex(anchor):
        raise InputFormatError("anchor", f"no vertex has id {anchor!r}")
    family = encode_potentials(g, lower, upper, anchor)
    payload = jsonio.system_json(family.system)
    payload["decode"] = {
        "kind": "potential",
        "anchor": anchor,
        "rule": "a potential assigns each vertex the signed sum of values on any path from the anchor",
    }
    return 0, payload, None


def _cmd_chipfire(args, doc):
    g, start = jsonio.parse_chip_input(doc)
    game = (build_complete_game if args.ccfg else build_game)(g, start, cap=args.cap)
    dot = iter_game_dot(game) if args.dot else None
    if args.ccfg:
        payload = jsonio.complete_game_json(game)
        report = check_complete_game_representation(game) if game.complete and game.acyclic else None
        payload["representation"] = None if report is None else jsonio.record_json(report)
        return (0 if report is not None and report.ok else 1), payload, dot
    payload = jsonio.game_json(game)
    if game.verdict != FINITE:
        return 1, payload, dot
    certificate = certify_game(game)
    payload["certificate"] = jsonio.game_certificate_json(certificate, game)
    return (0 if certificate.ok else 1), payload, dot


# ---------------------------------------------------------------------------
# parser assembly


def _command(sub, name: str, handler, text: str, forbidden=True, dot=False) -> argparse.ArgumentParser:
    """Declare subcommand `name`: --input and --output, then --forbidden and
    --dot when asked; the caller adds the rest."""
    p = sub.add_parser(name, help=text)
    p.add_argument("--input", default="-", help="input JSON path, or - for stdin")
    p.add_argument("--output", default="-", help="output JSON path, or - for stdout")
    if forbidden:
        p.add_argument(
            "--forbidden",
            type=_cli_id,
            default=None,
            help="forbidden (anchor) vertex; integer-looking values parse as integers",
        )
    if dot:
        p.add_argument("--dot", default=None, help="also write a Graphviz DOT file here")
    p.set_defaults(handler=handler)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondlat",
        description="Distributive lattices of capacity-windowed arc labelings with "
        "prescribed cycle flow-differences, and their applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    _command(sub, "reduce", _cmd_reduce, "contract rigid arcs of a system")
    _command(sub, "find-bond", _cmd_find_bond, "one bond of a system, or an infeasibility certificate")
    for name, analyze, text in (
        ("enumerate", False, "all bonds with their cover relations"),
        ("lattice", True, "enumerate plus certification and lattice analysis"),
    ):
        p = _command(sub, name, functools.partial(_run_enumerate, analyze=analyze), text, dot=True)
        p.add_argument("--cap", type=int, default=1_000_000, help="element cap (default 1000000)")
        p.add_argument("--coords", choices=("bond", "pushcount"), default="bond", help="DOT node labels")
    for name in ("meet", "join", "leq"):
        text = f"{name} of the bonds under keys \"x\" and \"y\""
        _command(sub, name, functools.partial(_cmd_order_op, op=name), text)
    _command(sub, "check-uld", _cmd_check_uld, "certify a colored cover digraph", forbidden=False)
    text = "brute-force lattice/ULD analysis of a finite poset"
    _command(sub, "check-poset", _cmd_check_poset, text, forbidden=False)
    _command(sub, "c-orient", _cmd_c_orient, "encode orientations with prescribed cycle flow-differences")
    for name, handler, text in (
        ("flows", _cmd_flows, "encode flows of a plane digraph on its dual"),
        ("alpha", _cmd_alpha, "encode orientations with prescribed out-degrees"),
    ):
        p = _command(sub, name, handler, text, forbidden=False)
        p.add_argument("--unbounded-face", type=int, default=0, help="face index to forbid (default 0)")
    _command(sub, "potentials", _cmd_potentials, "encode anchored vertex potentials")
    text = "explore and certify a chip-firing game"
    p = _command(sub, "chipfire", _cmd_chipfire, text, forbidden=False, dot=True)
    p.add_argument("--cap", type=int, default=100_000, help="state/radius cap (default 100000)")
    p.add_argument(
        "--ccfg",
        action="store_true",
        help="explore the complete game: unfiring moves too, plus the representation check",
    )
    return parser


@functools.cache
def _bind_domain():
    """Import the domain names that the handlers and `main` use and bind
    each here, with the `_REJECTIONS` table, unless it is bound already: a
    name patched before the first `main` call keeps its patch."""
    from . import jsonio
    from .bonds import InfeasibleSystemError, find_initial_bond
    from .checker import PosetError, brute_uld, certify_lld_cover, certify_uld_cover
    from .chipfire import (
        FINITE,
        ChipError,
        build_complete_game,
        build_game,
        certify_game,
        check_complete_game_representation,
    )
    # perfbench/tracing.py wraps `dumps`, `cover_digraph_dot` and `game_dot` once bound here;
    # none is called
    from .dotexport import bond_labels, cover_digraph_dot, game_dot, iter_cover_digraph_dot, iter_game_dot
    from .graph import GraphError, NonPlanarError, id_key, spanning_tree
    from .instances import (
        AlphaSpec,
        ExcessImbalanceError,
        FlowSpec,
        ParityError,
        encode_alpha_orientations,
        encode_c_orientations,
        encode_flows,
        encode_potentials,
    )
    from .jsonio import InputFormatError, dumps, iterdumps
    from .lattice import CapExceededError, color_tallies, enumerate_lattice, meet_irreducible_indices

    # Each domain rejection and the verdict `main` writes for it, with exit 1.
    _REJECTIONS = {
        InfeasibleSystemError: jsonio.infeasible_json,
        CapExceededError: lambda exc: {"verdict": "cap exceeded", "explored": exc.explored, "cap": exc.cap},
        ParityError: lambda exc: {
            "verdict": "parity",
            "arc": exc.defining_arc,
            "base_count": exc.base_count,
            "target": exc.target,
        },
        ExcessImbalanceError: lambda exc: {"verdict": "excess imbalance", "total": exc.total},
        NonPlanarError: lambda exc: {"verdict": "nonplanar", "genus": exc.genus},
    }
    for name, value in list(locals().items()):
        globals().setdefault(name, value)


def __getattr__(name: str):
    """A domain name read before the first `main` call binds them all.
    Dunder probes, such as the `__path__` that `from .cli import main`
    looks up, import nothing."""
    if not name.startswith("__"):
        _bind_domain()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _bind_domain()
    try:
        code, payload, dot = args.handler(args, _load(args.input))
    except tuple(_REJECTIONS) as exc:  # before GraphError, which NonPlanarError is
        verdict = next(render for kind, render in _REJECTIONS.items() if isinstance(exc, kind))
        code, payload, dot = 1, verdict(exc), None
    except (InputFormatError, GraphError, PosetError, ChipError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    # integers of any size are written exactly: the digit limit, which still guards
    # the input, is lifted while writing (before 3.10.7 there is none; `int` no-ops)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit = getattr(sys, "set_int_max_str_digits", int)
    set_limit(0)
    try:
        _emit(args.output, iterdumps(payload))
        del payload  # its tables are not held while the DOT is made
        if dot is not None:
            _emit(args.dot, dot, stdout=False)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_limit(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
