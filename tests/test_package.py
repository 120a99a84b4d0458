"""The package surface: every public name `bondlat` exports, the
test-only helpers that the library no longer carries, the imports
between its modules, and what is imported when.  Adding or removing a
public name means editing `PUBLIC`."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import bondlat
import bondlat.cli

PUBLIC = (
    # bonds
    "Bond", "BondSystem", "ContractionMap", "InfeasibleError", "InfeasibleSystemError",
    "ValidityReport", "arc_value_range", "find_initial_bond", "flow_difference",
    # checker
    "AxiomReport", "BruteReport", "ColoredDigraph", "ColorTrace", "CoverVerdict", "FinitePoset",
    "PosetError", "TraceError", "brute_uld", "certify_lld_cover", "certify_uld_cover",
    "check_distinct_fork_colors", "check_distributive", "check_fork_completion", "trace_color",
    # chipfire
    "ChipArrangement", "ChipError", "CompleteGame", "GameCertificate", "GameGraph",
    "RepresentationReport", "build_complete_game", "build_game", "can_fire", "can_unfire",
    "certify_game", "check_complete_game_representation", "fire", "unfire",
    "unique_minimal_representation_report",
    # graph
    "Arc", "ArcEnd", "CycleVector", "FaceWalk", "GraphError", "Multigraph", "NonPlanarError",
    "PlanarDual", "PlanarEmbedding", "faces", "fundamental_cycles", "planar_dual", "spanning_tree",
    # instances
    "AlphaFamily", "AlphaSpec", "COrientationFamily", "ExcessImbalanceError", "FlowFamily",
    "FlowSpec", "Orientation", "ParityError", "PotentialFamily", "encode_alpha_orientations",
    "encode_c_orientations", "encode_flows", "encode_potentials",
    # lattice
    "CapExceededError", "CoverDigraph", "NotLatticeError", "NotUldError",
    "canonical_uld_coloring", "color_tallies", "enumerate_lattice", "meet_irreducible_indices",
    "minimal_representation",
)

# (module, owner or None for the module itself, name): test-only code the
# tests replaced with their own oracles in tests/util.py, and structural
# reads that the one `ColoredDigraph` index now answers
REMOVED = (
    ("bonds", "BondSystem", "all_bonds_brute_force"),
    ("bonds", "BondSystem", "push"),
    ("bonds", "BondSystem", "is_legal_push"),
    ("bonds", "BondSystem", "is_bond"),
    ("bonds", "BondSystem", "is_reduced"),
    ("graph", "Multigraph", "in_arcs"),
    ("graph", "Multigraph", "in_degree"),
    ("graph", None, "vertex_cut"),
    ("graph", None, "VertexCut"),
    ("chipfire", None, "maximal_firing_sequences"),
    ("checker", None, "certify_distributive_cover"),
    ("checker", None, "DistributiveVerdict"),
    ("instances", None, "_window_value"),
    ("lattice", None, "_unique_end"),
    ("lattice", None, "_tally_rows"),
    ("lattice", "CoverDigraph", "source_index"),
    ("lattice", "CoverDigraph", "sink_index"),
    ("lattice", "CoverDigraph", "colors"),
    ("lattice", "CoverDigraph", "cover_pairs"),
    ("lattice", "CoverDigraph", "to_poset"),
    ("chipfire", "GameGraph", "terminal_index"),
    ("chipfire", "CompleteGame", "to_poset"),
    ("checker", None, "topological_order"),
    # games walk the lattice's packed keys: the tuple walk and the lattice's own decode are gone
    ("chipfire", None, "_rules"),
    ("chipfire", None, "_step"),
    ("chipfire", None, "_sorted_moves"),
    ("lattice", None, "_FIELD_CODES"),
)


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(bondlat)
        if not name.startswith("_") and not isinstance(getattr(bondlat, name), types.ModuleType)
    }
    assert len(PUBLIC) == len(set(PUBLIC)) == 74
    assert exported == set(PUBLIC)


def test_each_public_name_imports():
    namespace = {}
    exec(f"from bondlat import {', '.join(PUBLIC)}", namespace)
    assert all(namespace[name] is getattr(bondlat, name) for name in PUBLIC)


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from bondlat import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_removed_names_are_gone():
    for module, owner, name in REMOVED:
        holder = importlib.import_module(f"bondlat.{module}")
        if owner is not None:
            holder = getattr(holder, owner)
        assert not hasattr(holder, name), f"bondlat.{module} still defines {name}"
        assert not hasattr(bondlat, name)


SOURCE = pathlib.Path(bondlat.__file__).parent

# names a module imports only so that perfbench/tracing.py can wrap them there
TRACED_IMPORTS = {"cli": {"dumps", "cover_digraph_dot", "game_dot"}}


def _imports(tree: ast.Module) -> list:
    """(bound name, module it comes from) for every import in `tree`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [((a.asname or a.name).split(".")[0], a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            origin = "." * node.level + (node.module or "")
            found += [(a.asname or a.name, origin) for a in node.names]
    return found


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        allowed = TRACED_IMPORTS.get(path.stem, set())
        unused += [f"{path.stem}: {name}" for name, _ in _imports(tree) if name not in used | allowed]
    assert unused == []


def test_chipfire_imports_nothing_from_lattice():
    tree = ast.parse((SOURCE / "chipfire.py").read_text(encoding="utf-8"))
    assert [pair for pair in _imports(tree) if "lattice" in (pair[0], pair[1].split(".")[-1])] == []


# ---------------------------------------------------------------------------
# lazy imports: the package and the CLI load a domain module on first use

SUBMODULES = ("bonds", "checker", "chipfire", "cli", "dotexport", "graph", "instances", "jsonio", "lattice")


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a new bare interpreter (no site packages) that imports
    bondlat from this tree."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_help_loads_only_the_cli():
    """`bondlat --help`, run as `-m` runs it, has loaded exactly the
    package, its `__main__` and the CLI when argparse exits."""
    code = """if True:
        import runpy, sys
        exit = sys.exit
        loaded = lambda: sorted(name for name in sys.modules if name.split(".")[0] == "bondlat")
        sys.exit = lambda status=None: print(*loaded(), file=sys.stderr) or exit(status)
        sys.argv[1:] = ["--help"]
        runpy.run_module("bondlat", alter_sys=True)
    """
    proc = _fresh(code)
    assert proc.stdout.startswith("usage: bondlat")
    assert proc.stderr.split() == ["bondlat", "bondlat.__main__", "bondlat.cli"]


def test_import_loads_no_submodule():
    code = f"""if True:
        import sys, types, bondlat
        print(sorted(name for name in sys.modules if name.split(".")[0] == "bondlat"))
        print(all(isinstance(getattr(bondlat, name), types.ModuleType) for name in {SUBMODULES!r}))
    """
    assert _fresh(code).stdout.split("\n") == ["['bondlat']", "True", ""]


def test_chipfire_loads_only_the_game_layers():
    """Games share the lattice's key layout through `graph`, so importing
    `chipfire` still loads neither `lattice` nor `bonds`."""
    code = """if True:
        import sys, bondlat.chipfire
        print(*sorted(name for name in sys.modules if name.split(".")[0] == "bondlat"))
    """
    assert _fresh(code).stdout.split() == ["bondlat", "bondlat.checker", "bondlat.chipfire", "bondlat.graph"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'bondlat' has no attribute 'no_such_name'"):
        bondlat.no_such_name
    with pytest.raises(AttributeError, match="module 'bondlat.cli' has no attribute 'no_such_name'"):
        bondlat.cli.no_such_name
    assert not hasattr(bondlat.cli, "__path__")


def test_cli_names_resolve_before_main():
    code = "import bondlat.cli; print(bondlat.cli.enumerate_lattice is bondlat.lattice.enumerate_lattice)"
    assert _fresh(code).stdout == "True\n"


TRACED_LATTICE = """if True:
    import importlib.util, json, sys
    from bondlat import cli

    spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    argv = ["lattice", "--input", sys.argv[2], "--output", sys.argv[3]]
    if sys.argv[4] == "untraced first":
        assert cli.main(argv) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    print(json.dumps([metrics["lattice.elements"], metrics["checker.certify_uld_s"] > 0]))
"""


@pytest.mark.parametrize("order", ["traced first", "untraced first"])
def test_tracer_patches_survive_the_first_main_call(tmp_path, order):
    """perfbench's tracer patches names on `cli`; the CLI's first `main`
    call must not rebind them, whether it comes before or after `install`."""
    system = {
        "vertices": [1, 2, 3],
        "arcs": [{"id": "a", "tail": 1, "head": 2}, {"id": "b", "tail": 2, "head": 3}, {"id": "c", "tail": 1, "head": 3}],
        "lower": {"a": 0, "b": -1, "c": 0},
        "upper": {"a": 2, "b": 1, "c": 2},
        "reference": {"a": 0, "b": 0, "c": 0},
    }
    source = tmp_path / "system.json"
    source.write_text(json.dumps(system), encoding="utf-8")
    tracing = SOURCE.parent.parent / "perfbench" / "tracing.py"
    args = (str(tracing), str(source), str(tmp_path / "out.json"), order)
    assert _fresh(TRACED_LATTICE, *args).stdout == "[7, true]\n"
