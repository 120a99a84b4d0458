"""The package surface: every public name `bondlat` exports, the
test-only helpers that the library no longer carries, and the imports
between its modules.  Adding or removing a public name means editing
`PUBLIC`."""

import ast
import importlib
import pathlib
import types

import bondlat

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
