import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonbs import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    MediumParams,
    PulseEnvelope,
    SplitterMatrix,
    effective_overlap,
    extract_matrix,
    fold_phase,
    phi_rt_analytic,
    phi_rt_of_matrix,
    store_magnon,
    tau_from_fwhm,
)
from magnonbs.splitter import splitter_from_outputs


def test_tau_from_fwhm_value_and_guard():
    assert tau_from_fwhm(2.0) == pytest.approx(1.0 / math.sqrt(math.log(2.0)))
    with pytest.raises(ConfigError):
        tau_from_fwhm(0.0)


def test_fold_phase_measures_distance_from_zero():
    assert fold_phase(0.3) == pytest.approx(0.3)
    assert fold_phase(2.0 * math.pi - 0.3) == pytest.approx(0.3)
    assert fold_phase(-0.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert fold_phase(7.0 * math.pi) == pytest.approx(math.pi)


def test_phi_rt_of_matrix_known_values():
    r = math.sqrt(0.5)
    sym = SplitterMatrix(t1=r, r1=1j * r, t2=r, r2=1j * r)
    assert phi_rt_of_matrix(sym) == pytest.approx(math.pi)
    real = SplitterMatrix(t1=0.4, r1=0.45, t2=0.5, r2=0.45)
    assert phi_rt_of_matrix(real) == pytest.approx(0.0)


def test_phi_rt_of_matrix_rejects_vanishing_amplitude():
    with pytest.raises(ConfigError):
        phi_rt_of_matrix(SplitterMatrix(t1=1.0, r1=0.0, t2=1.0, r2=0.0))


@settings(max_examples=60, deadline=None)
@given(
    phases=st.tuples(*[st.floats(0.0, 2.0 * math.pi) for _ in range(4)]),
    # Four magnitudes of at most 1/2 bound the Frobenius norm, and with it
    # the largest singular value, by 1: every drawn matrix is passive.
    mags=st.tuples(*[st.floats(0.05, 0.5) for _ in range(4)]),
)
def test_phi_rt_is_gauge_invariant(phases, mags):
    # Rephasing input or output ports multiplies rows/columns by unit
    # phases; phi_rt compares r1 r2 against t1 t2 and both pick up the
    # same total factor.
    t1, r1, t2, r2 = (
        m * np.exp(1j * p) for m, p in zip(mags, phases)
    )
    base = SplitterMatrix(t1=t1, r1=r1, t2=t2, r2=r2)
    a, b, c, d = 0.7, 1.9, 2.6, 5.1
    gauged = SplitterMatrix(
        t1=t1 * np.exp(1j * (a + c)),
        r1=r1 * np.exp(1j * (b + c)),
        t2=t2 * np.exp(1j * (b + d)),
        r2=r2 * np.exp(1j * (a + d)),
    )
    assert fold_phase(
        phi_rt_of_matrix(gauged) - phi_rt_of_matrix(base)
    ) == pytest.approx(0.0, abs=1e-9)


def test_phi_rt_analytic_real_gauge_on_resonance():
    # Zero detuning with a real control keeps every amplitude real, so
    # the round-trip phase is pinned to 0 or pi exactly.
    tau = tau_from_fwhm(1.8847)
    for rabi in (3.0, 8.0, 20.0, 34.25):
        for od in (5.0, 30.0, 100.0):
            phi = phi_rt_analytic(rabi, 0.0, od, tau)
            assert min(abs(phi), abs(phi - math.pi)) < 1e-9


def test_phi_rt_analytic_frozen_operating_points():
    tau = tau_from_fwhm(1.8847)
    assert phi_rt_analytic(34.25, 0.0, 30.0, tau) == pytest.approx(0.0, abs=1e-9)
    assert phi_rt_analytic(34.25, 10.0, 66.0, tau) == pytest.approx(
        1.5332, abs=1e-3
    )
    assert phi_rt_analytic(34.25, 20.0, 100.0, tau) == pytest.approx(
        3.3315, abs=1e-3
    )


def test_phi_rt_analytic_guards():
    tau = tau_from_fwhm(1.8847)
    with pytest.raises(ConfigError):
        phi_rt_analytic(10.0, 0.0, 0.0, tau)
    with pytest.raises(ConfigError):
        phi_rt_analytic(0.0, 0.0, 30.0, tau)
    with pytest.raises(ConfigError):
        phi_rt_analytic(10.0, 0.0, 30.0, tau, gamma31=0.0)


def _synthetic_projection(b, input_a=0.9, input_b=0.8):
    # Manufacture two single-input runs that realize a known matrix on
    # shared gaussian output modes, then ask the projector for it back.
    times = np.linspace(0.0, 10.0, 1501)
    dt = times[1] - times[0]
    n_z = 64
    z = (np.arange(n_z) + 0.5) / n_z
    dz = 1.0 / n_z

    g = np.exp(-((times - 4.0) ** 2) / 0.8).astype(complex)
    g /= math.sqrt(dt * np.sum(np.abs(g) ** 2))
    m = np.sin(np.pi * z).astype(complex)
    m /= math.sqrt(dz * np.sum(np.abs(m) ** 2))

    ra, rb = math.sqrt(input_a), math.sqrt(input_b)
    return splitter_from_outputs(
        times,
        dt,
        b.r1 * ra * g,
        b.t2 * rb * g,
        b.t1 * ra * m,
        b.r2 * rb * m,
        dz,
        input_a,
        input_b,
    )


def test_extraction_round_trips_a_synthetic_matrix():
    b = SplitterMatrix(
        t1=0.52, r1=0.31j, t2=0.44 * np.exp(0.3j), r2=0.27 + 0.11j
    )
    got = _synthetic_projection(b)
    # Output-mode phases are set by the summed-run convention, so the
    # magnitudes and the gauge-invariant phase are what round-trip.
    assert abs(got.t1) == pytest.approx(abs(b.t1), abs=1e-6)
    assert abs(got.r1) == pytest.approx(abs(b.r1), abs=1e-6)
    assert abs(got.t2) == pytest.approx(abs(b.t2), abs=1e-6)
    assert abs(got.r2) == pytest.approx(abs(b.r2), abs=1e-6)
    assert fold_phase(
        phi_rt_of_matrix(got) - phi_rt_of_matrix(b)
    ) == pytest.approx(0.0, abs=1e-6)


def test_projection_guards():
    b = SplitterMatrix(t1=0.5, r1=0.3, t2=0.5, r2=0.3)
    with pytest.raises(ConfigError):
        _synthetic_projection(b, input_a=1e-6)
    times = np.linspace(0.0, 10.0, 101)
    zeros_t = np.zeros(101, dtype=complex)
    zeros_z = np.zeros(64, dtype=complex)
    with pytest.raises(ConfigError):
        splitter_from_outputs(
            times, 0.1, zeros_t, zeros_t, zeros_z, zeros_z, 1.0 / 64, 1.0, 1.0
        )


OD30 = MediumParams(od=30.0)
PULSE = PulseEnvelope(fwhm=1.5, t_center=3.2)
PROBE = PulseEnvelope(fwhm=1.5, t_center=0.6)


def test_extract_matrix_identity_without_drive_or_atoms():
    # Zero mixing drive freezes the spin wave and an empty cell passes
    # the probe untouched, so the measured matrix is the identity.
    empty = MediumParams(od=0.0)
    stored = store_magnon(OD30, PULSE, 5.0, n_z=96)
    timeline = ControlTimeline(
        (ControlSegment(0.0, 2.0, 0.0, "beamsplit"),)
    )
    result = extract_matrix(
        empty, timeline, PROBE, stored.state, n_z=96, t_end=5.0
    )
    b = result.matrix
    assert abs(b.t1) == pytest.approx(1.0, abs=1e-3)
    assert abs(b.r1) == pytest.approx(0.0, abs=1e-3)
    assert abs(b.t2) == pytest.approx(1.0, abs=1e-3)
    assert abs(b.r2) == pytest.approx(0.0, abs=1e-3)


def test_extract_matrix_mixes_ports_in_a_driven_cell():
    stored = store_magnon(OD30, PULSE, 3.0, n_z=96)
    timeline = ControlTimeline(
        (ControlSegment(0.0, 2.0, 13.0, "beamsplit"),)
    )
    result = extract_matrix(
        OD30, timeline, PROBE, stored.state, n_z=96, t_end=5.5
    )
    b = result.matrix
    # All four channels carry weight and the matrix stays passive.
    for amp in (b.t1, b.r1, b.t2, b.r2):
        assert abs(amp) > 0.05
    assert max(b.port_sums) <= 1.0 + 1e-6
    assert 0.0 <= effective_overlap(result) <= 1.0


def test_extract_matrix_requires_a_beamsplit_segment():
    stored = store_magnon(OD30, PULSE, 5.0, n_z=96)
    timeline = ControlTimeline(
        (ControlSegment(0.0, 2.0, 13.0, "readout"),)
    )
    with pytest.raises(ConfigError):
        extract_matrix(OD30, timeline, PROBE, stored.state, n_z=96)
