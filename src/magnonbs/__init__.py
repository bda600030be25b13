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
    Trajectory,
    evolve,
    evolve_batch,
)
from .splitter import (
    ExtractionResult,
    extract_matrix,
    fold_phase,
    phi_rt_analytic,
    phi_rt_of_matrix,
    splitter_from_outputs,
    tau_from_fwhm,
)
from .stats import (
    CLASSICAL,
    ClassicalBounds,
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
    "Trajectory",
    "evolve",
    "evolve_batch",
    "ExtractionResult",
    "extract_matrix",
    "fold_phase",
    "phi_rt_analytic",
    "phi_rt_of_matrix",
    "splitter_from_outputs",
    "tau_from_fwhm",
    "CLASSICAL",
    "ClassicalBounds",
    "g2_formula",
    "g3_formula",
]
