"""Desk-scale simulator of an atomic memory run as a photon/magnon splitter."""

from .core import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    FieldState,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    SplitterMatrix,
    make_grid,
)
from .fock_oracle import (
    FockInput,
    ModeNetwork,
    cascade_three,
    g2_from_distribution,
    g3_from_distribution,
    output_distribution,
    three_photon_input,
    two_photon_input,
)
from .mbloch import (
    SimulationConfig,
    StorageResult,
    Trajectory,
    evolve,
    store_magnon,
    v_group,
)
from .splitter import (
    ExtractionResult,
    effective_overlap,
    extract_matrix,
    fold_phase,
    phi_rt_analytic,
    phi_rt_of_matrix,
    splitter_from_outputs,
    tau_from_fwhm,
)
from .stats import (
    ClassicalBounds,
    OverlapEnvelope,
    classical_bounds,
    g2_formula,
    g3_formula,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ControlSegment",
    "ControlTimeline",
    "FieldState",
    "MediumParams",
    "PhysicsViolation",
    "PulseEnvelope",
    "SplitterMatrix",
    "make_grid",
    "FockInput",
    "ModeNetwork",
    "cascade_three",
    "g2_from_distribution",
    "g3_from_distribution",
    "output_distribution",
    "three_photon_input",
    "two_photon_input",
    "SimulationConfig",
    "StorageResult",
    "Trajectory",
    "evolve",
    "store_magnon",
    "v_group",
    "ExtractionResult",
    "effective_overlap",
    "extract_matrix",
    "fold_phase",
    "phi_rt_analytic",
    "phi_rt_of_matrix",
    "splitter_from_outputs",
    "tau_from_fwhm",
    "ClassicalBounds",
    "OverlapEnvelope",
    "classical_bounds",
    "g2_formula",
    "g3_formula",
]
