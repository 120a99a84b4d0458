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
"""

from .bonds import (
    Bond,
    BondSystem,
    ContractionMap,
    InfeasibleError,
    InfeasibleSystemError,
    ValidityReport,
    arc_value_range,
    find_initial_bond,
    flow_difference,
)
from .checker import (
    AxiomReport,
    BruteReport,
    ColoredDigraph,
    ColorTrace,
    CoverVerdict,
    FinitePoset,
    PosetError,
    TraceError,
    brute_uld,
    certify_lld_cover,
    certify_uld_cover,
    check_distinct_fork_colors,
    check_distributive,
    check_fork_completion,
    trace_color,
)
from .chipfire import (
    ChipArrangement,
    ChipError,
    CompleteGame,
    GameCertificate,
    GameGraph,
    RepresentationReport,
    build_complete_game,
    build_game,
    can_fire,
    can_unfire,
    certify_game,
    check_complete_game_representation,
    fire,
    unfire,
    unique_minimal_representation_report,
)
from .graph import (
    Arc,
    ArcEnd,
    CycleVector,
    FaceWalk,
    GraphError,
    Multigraph,
    NonPlanarError,
    PlanarDual,
    PlanarEmbedding,
    faces,
    fundamental_cycles,
    planar_dual,
    spanning_tree,
)
from .instances import (
    AlphaFamily,
    AlphaSpec,
    COrientationFamily,
    ExcessImbalanceError,
    FlowFamily,
    FlowSpec,
    Orientation,
    ParityError,
    PotentialFamily,
    encode_alpha_orientations,
    encode_c_orientations,
    encode_flows,
    encode_potentials,
)
from .lattice import (
    CapExceededError,
    CoverDigraph,
    NotLatticeError,
    NotUldError,
    canonical_uld_coloring,
    color_tallies,
    enumerate_lattice,
    meet_irreducible_indices,
    minimal_representation,
)

__version__ = "0.1.0"
