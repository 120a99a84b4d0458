"""Distributive lattices of capacity-windowed integer arc labelings.

The central object is a BondSystem: a connected directed multigraph whose
arcs carry integer capacity windows and a reference labeling prescribing
the flow-difference around every cycle.  Labelings meeting both
constraints ("bonds") form a distributive lattice once rigid arcs are
contracted; `enumerate_lattice` materializes it with covers given by
single-vertex pushes, and the checker certifies the lattice axioms from
the cover coloring alone.

Encoders map classical families onto bond systems: orientations with
prescribed cycle flow-differences or out-degrees, flows and circulations
of plane digraphs (through the planar dual), anchored vertex potentials,
and chip-firing games.

Importing the package loads no submodule: a public name or a submodule
is imported on first use (PEP 562), so `bondlat --help` loads only the CLI.
"""

# Each module's public names, all exported from the package.
_EXPORTS = {
    "bonds": (
        "Bond", "BondSystem", "ContractionMap", "InfeasibleError", "InfeasibleSystemError",
        "ValidityReport", "arc_value_range", "find_initial_bond", "flow_difference",
    ),
    "checker": (
        "AxiomReport", "BruteReport", "ColoredDigraph", "ColorTrace", "CoverVerdict", "FinitePoset",
        "PosetError", "TraceError", "brute_uld", "certify_lld_cover", "certify_uld_cover",
        "check_distinct_fork_colors", "check_distributive", "check_fork_completion", "trace_color",
    ),
    "chipfire": (
        "ChipArrangement", "ChipError", "CompleteGame", "GameCertificate", "GameGraph",
        "RepresentationReport", "build_complete_game", "build_game", "can_fire", "can_unfire",
        "certify_game", "check_complete_game_representation", "fire", "unfire",
        "unique_minimal_representation_report",
    ),
    "graph": (
        "Arc", "ArcEnd", "CycleVector", "FaceWalk", "GraphError", "Multigraph", "NonPlanarError",
        "PlanarDual", "PlanarEmbedding", "faces", "fundamental_cycles", "planar_dual", "spanning_tree",
    ),
    "instances": (
        "AlphaFamily", "AlphaSpec", "COrientationFamily", "ExcessImbalanceError", "FlowFamily",
        "FlowSpec", "Orientation", "ParityError", "PotentialFamily", "encode_alpha_orientations",
        "encode_c_orientations", "encode_flows", "encode_potentials",
    ),
    "lattice": (
        "CapExceededError", "CoverDigraph", "NotLatticeError", "NotUldError",
        "canonical_uld_coloring", "color_tallies", "enumerate_lattice", "meet_irreducible_indices",
        "minimal_representation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "dotexport", "jsonio"}

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of `name` on first use; a public name is then
    cached here, and a submodule is bound here by its import."""
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
