"""The package surface: every public name `bondlat` exports, and the
test-only helpers that the library no longer carries.  Adding or removing
a public name means editing `PUBLIC`."""

import importlib
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
# tests replaced with their own oracles in tests/util.py
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
