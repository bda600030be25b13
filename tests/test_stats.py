import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonbs import (
    CLASSICAL,
    ConfigError,
    PulseEnvelope,
    g2_formula,
    g3_formula,
)
from magnonbs.scenarios import delay_overlap


def test_g2_formula_frozen_values():
    assert g2_formula(1.0, math.pi) == pytest.approx(0.0, abs=1e-12)
    assert g2_formula(1.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert g2_formula(0.75, 0.0) == pytest.approx(1.75)
    assert g2_formula(0.71, 0.0) == pytest.approx(1.71)
    assert g2_formula(0.60, math.pi) == pytest.approx(0.40)
    assert g2_formula(0.5, math.pi / 2) == pytest.approx(1.0)


def test_g2_formula_rejects_bad_overlap():
    for overlap, phase in [
        (1.2, 0.0),
        (-0.2, 0.0),
        # Just past the range: no slack below 0, and 1e-9 above 1.
        (-1e-7, 0.0),
        (1.0 + 5e-7, 0.0),
        (math.nan, 0.0),
        (np.array([0.2, math.nan, 0.7]), 0.0),
        # One bad element among good ones is enough.
        (np.array([0.2, 0.5, 1.2]), 0.0),
        (0.5, math.nan),
        (0.5, np.array([0.0, math.inf])),
    ]:
        with pytest.raises(ConfigError):
            g2_formula(overlap, phase)
    for overlap in (1.2, -1e-7, 1.0 + 5e-7, math.nan, np.array([0.2, 0.5, 1.2])):
        with pytest.raises(ConfigError):
            g3_formula(0.5, overlap)
    # Roundoff above 1 is clipped to 1.
    assert g2_formula(1.0 + 5e-10, 0.0) == 2.0
    assert g3_formula(1.0 + 5e-10, 1.0) == 4.0


def test_closed_forms_over_arrays_equal_their_scalar_values():
    rng = np.random.default_rng(7)
    overlaps = rng.uniform(0.0, 1.0, 40)
    phases = rng.uniform(0.0, 2.0 * math.pi, 40)
    g2 = g2_formula(overlaps, phases)
    assert np.array_equal(g2, [g2_formula(i, p) for i, p in zip(overlaps, phases)])
    g3 = g3_formula(overlaps[:, None], overlaps[None, :])
    assert g3.shape == (40, 40)
    assert np.array_equal(
        g3, [[g3_formula(a, b) for b in overlaps] for a in overlaps]
    )
    # Scalars give numpy scalars, which print as floats do.
    assert type(g2_formula(0.5, 0.3)) is np.float64
    assert str(g2_formula(0.5, 0.3)) == str(1.0 + 0.5 * math.cos(0.3))


@settings(max_examples=80, deadline=None)
@given(
    i_val=st.floats(0.0, 1.0),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_g2_formula_stays_in_physical_band(i_val, phi):
    value = g2_formula(i_val, phi)
    assert 0.0 <= value <= 2.0
    # Hermitian phase lower-bounds, zero phase upper-bounds.
    assert value >= g2_formula(i_val, math.pi) - 1e-12
    assert value <= g2_formula(i_val, 0.0) + 1e-12


def test_g3_formula_factorizes():
    assert g3_formula(1.0, 1.0) == pytest.approx(4.0)
    assert g3_formula(0.75, 0.75) == pytest.approx(3.0625)
    assert g3_formula(0.3, 0.8) == pytest.approx(1.3 * 1.8)


def test_classical_bounds_values():
    assert CLASSICAL.g2_min == 0.5
    assert CLASSICAL.g2_max == 1.5
    assert CLASSICAL.g3_max == 2.25


def test_gaussian_envelope_peak_symmetry_and_tails():
    assert delay_overlap(0.0, 0.8) == pytest.approx(0.8)
    assert delay_overlap(1.3, 0.8) == pytest.approx(delay_overlap(-1.3, 0.8))
    assert delay_overlap(50.0, 0.8) < 1e-12


def test_envelope_from_pulse_uses_intensity_sigma():
    # The figures' delay overlap takes its width from their probe pulse, a
    # FWHM of 1.5: 1/e of the peak at d = 2 sigma for the two-pulse overlap.
    sigma = PulseEnvelope(fwhm=1.5, t_center=0.0).sigma
    assert delay_overlap(2.0 * sigma, 0.9) == pytest.approx(0.9 / math.e, rel=1e-9)
    assert delay_overlap(0.0, 0.9) == pytest.approx(0.9)


def test_envelope_guards():
    for i_peak in (1.2, -0.1, math.nan):
        with pytest.raises(ConfigError):
            delay_overlap(0.0, i_peak)
