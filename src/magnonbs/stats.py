"""Closed-form interference statistics and overlap-envelope handling.

These formulas describe the ideal balanced splitter: the normalized two-input
coincidence is  g2 = 1 + I cos(phi_rt)  with I the mode overlap of the two
inputs, sweeping from bosonic suppression (cos = -1) through the classical
value 1 to fermion-like enhancement (cos = +1).  For three particles
interfering pairwise in sequence at zero round-trip phase the enhancements
compound as  g3 = (1 + I12)(1 + I23).

The exact reference model lives elsewhere; these expressions are what the
reference is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConfigError, PROBABILITY_SLACK, PulseEnvelope


class ClassicalBounds(NamedTuple):
    g2_min: float
    g2_max: float
    g3_max: float


def classical_bounds() -> ClassicalBounds:
    """Range reachable by classical fields of arbitrary mutual coherence.

    Interfering classical pulses on a balanced splitter keep the normalized
    coincidence inside [1/2, 3/2]; the three-fold analogue cannot exceed
    (3/2)^2.  Values outside these bounds need particle-number statistics.
    """
    return ClassicalBounds(0.5, 1.5, 2.25)


def _check_overlap(value: float, name: str) -> float:
    if not -PROBABILITY_SLACK <= value <= 1.0 + PROBABILITY_SLACK:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return float(min(max(value, 0.0), 1.0))


def g2_formula(overlap_i: float, phi_rt: float) -> float:
    """Balanced-splitter coincidence ratio 1 + I cos(phi_rt)."""
    i = _check_overlap(overlap_i, "overlap")
    return 1.0 + i * math.cos(phi_rt)


def g3_formula(i12: float, i23: float, phi_rt: float = 0.0) -> float:
    """Sequential three-particle ratio (1 + I12)(1 + I23).

    Only valid when both mixing stages run at zero round-trip phase; other
    phases need the exact reference model.
    """
    a = _check_overlap(i12, "i12")
    b = _check_overlap(i23, "i23")
    if min(phi_rt % (2 * math.pi), -phi_rt % (2 * math.pi)) > 1e-6:
        raise ConfigError(
            "three-particle factorization holds at zero round-trip phase only"
        )
    return (1.0 + a) * (1.0 + b)


@dataclass(frozen=True)
class OverlapEnvelope:
    """Mode overlap I as a function of the delay between the two inputs.

    I(dt) = i_peak * exp(-dt^2 / (4 sigma^2)) with sigma the intensity-profile
    standard deviation of the pulses: two identical Gaussian modes delayed by
    dt overlap by exactly this much.
    """

    i_peak: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        _check_overlap(self.i_peak, "i_peak")
        if self.sigma <= 0:
            raise ConfigError("envelope width must be positive")

    @classmethod
    def from_pulse(cls, pulse: PulseEnvelope, i_peak: float = 1.0) -> "OverlapEnvelope":
        return cls(i_peak=i_peak, sigma=pulse.sigma)

    def __call__(self, dtau: float | np.ndarray) -> float | np.ndarray:
        dtau = np.abs(np.asarray(dtau, dtype=float))
        out = self.i_peak * np.exp(-(dtau**2) / (4.0 * self.sigma**2))
        if out.ndim == 0:
            return float(out)
        return out
