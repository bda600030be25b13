import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonbs import (
    ConfigError,
    OverlapEnvelope,
    PulseEnvelope,
    classical_bounds,
    g2_formula,
    g3_formula,
)


def test_g2_formula_frozen_values():
    assert g2_formula(1.0, math.pi) == pytest.approx(0.0, abs=1e-12)
    assert g2_formula(1.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert g2_formula(0.75, 0.0) == pytest.approx(1.75)
    assert g2_formula(0.71, 0.0) == pytest.approx(1.71)
    assert g2_formula(0.60, math.pi) == pytest.approx(0.40)
    assert g2_formula(0.5, math.pi / 2) == pytest.approx(1.0)


def test_g2_formula_rejects_bad_overlap():
    with pytest.raises(ConfigError):
        g2_formula(1.2, 0.0)
    with pytest.raises(ConfigError):
        g2_formula(-0.2, 0.0)


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
    assert g3_formula(0.5, 0.5, phi_rt=2.0 * math.pi) == pytest.approx(2.25)


def test_g3_formula_requires_zero_phase():
    with pytest.raises(ConfigError):
        g3_formula(0.5, 0.5, phi_rt=0.3)


def test_classical_bounds_values():
    bounds = classical_bounds()
    assert bounds.g2_min == 0.5
    assert bounds.g2_max == 1.5
    assert bounds.g3_max == 2.25


def test_gaussian_envelope_peak_symmetry_and_tails():
    env = OverlapEnvelope(i_peak=0.8, sigma=0.7)
    assert env(0.0) == pytest.approx(0.8)
    assert env(1.3) == pytest.approx(env(-1.3))
    assert env(50.0) < 1e-12
    # 1/e of the peak at dt = 2 sigma for the two-pulse overlap.
    assert env(1.4) == pytest.approx(0.8 / math.e, rel=1e-9)


def test_envelope_from_pulse_uses_intensity_sigma():
    pulse = PulseEnvelope(fwhm=1.5, t_center=0.0)
    env = OverlapEnvelope.from_pulse(pulse, i_peak=0.9)
    assert env.sigma == pytest.approx(pulse.sigma)
    assert env(0.0) == pytest.approx(0.9)


def test_envelope_guards():
    with pytest.raises(ConfigError):
        OverlapEnvelope(i_peak=1.2, sigma=0.5)
    with pytest.raises(ConfigError):
        OverlapEnvelope(i_peak=0.5, sigma=0.0)
