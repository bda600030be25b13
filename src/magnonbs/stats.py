"""Closed-form interference statistics and the classical bounds.

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

from typing import NamedTuple

import numpy as np

from .core import ConfigError, _check_overlap


class ClassicalBounds(NamedTuple):
    g2_min: float
    g2_max: float
    g3_max: float


# Range reachable by classical fields of arbitrary mutual coherence.
# Interfering classical pulses on a balanced splitter keep the normalized
# coincidence inside [1/2, 3/2]; the three-fold analogue cannot exceed
# (3/2)^2.  Values outside these bounds need particle-number statistics.
CLASSICAL = ClassicalBounds(0.5, 1.5, 2.25)


def g2_formula(
    overlap_i: float | np.ndarray, phi_rt: float | np.ndarray
) -> float | np.ndarray:
    """Balanced-splitter coincidence ratio 1 + I cos(phi_rt).

    Broadcasts over arrays of overlaps and phases.
    """
    i = _check_overlap(overlap_i, "overlap")
    if not np.isfinite(phi_rt).all():
        raise ConfigError(f"phi_rt must be finite, got {phi_rt}")
    return 1.0 + i * np.cos(phi_rt)


def g3_formula(
    i12: float | np.ndarray, i23: float | np.ndarray
) -> float | np.ndarray:
    """Sequential three-particle ratio (1 + I12)(1 + I23).

    Broadcasts over arrays of overlaps.  Only valid when both mixing stages
    run at zero round-trip phase; other phases need the exact reference
    model.
    """
    a = _check_overlap(i12, "i12")
    b = _check_overlap(i23, "i23")
    return (1.0 + a) * (1.0 + b)
