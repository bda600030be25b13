import math

import numpy as np
import pytest
from scipy.linalg import expm

from magnonbs import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    SimulationConfig,
    dsp_project,
    evolve,
    overlap,
    storage_efficiency,
    store_magnon,
    v_group,
)

OD30 = MediumParams(od=30.0)
PULSE = PulseEnvelope(fwhm=1.5, t_center=3.2)


def constant_drive(rabi, t_end=12.0, label="beamsplit"):
    return ControlTimeline((ControlSegment(0.0, t_end, rabi, label),))


def test_vacuum_propagation_is_a_pure_delay():
    # Empty cell: the emitted field is the input shifted by the transit
    # time L / c_eff; the advection step moves exactly one cell per step,
    # so the shape is preserved to interpolation accuracy.
    medium = MediumParams(od=0.0)
    pulse = PulseEnvelope(fwhm=1.5, t_center=5.0)
    traj = evolve(
        medium, constant_drive(0.0, 10.0), SimulationConfig(t_end=10.0, n_z=160),
        pulse=pulse,
    )
    assert traj.final_state.emitted_norm == pytest.approx(
        traj.input_norm, rel=1e-6
    )
    expected = pulse.amplitude(traj.times - 1.0 / medium.c_eff)
    num = abs(np.vdot(expected, traj.emitted)) ** 2
    den = np.sum(np.abs(expected) ** 2) * np.sum(np.abs(traj.emitted) ** 2)
    assert num / den > 0.9999
    assert traj.final_state.loss_accum < 1e-12


def test_eit_transparency_at_strong_drive():
    traj = evolve(
        OD30, constant_drive(20.0), SimulationConfig(t_end=12.0, n_z=160),
        pulse=PULSE,
    )
    transmission = traj.final_state.emitted_norm / traj.input_norm
    assert transmission >= 0.99


def test_group_delay_matches_polariton_velocity():
    traj = evolve(
        OD30, constant_drive(20.0), SimulationConfig(t_end=12.0, n_z=160),
        pulse=PULSE,
    )
    w = np.abs(traj.emitted) ** 2
    centroid = float(np.sum(traj.times * w) / np.sum(w))
    delay = centroid - PULSE.t_center
    assert delay == pytest.approx(1.0 / v_group(OD30, 20.0), rel=0.05)


def test_evolve_is_linear_in_the_input_amplitude():
    config = SimulationConfig(t_end=8.0, n_z=96)
    tl = constant_drive(13.0, 8.0)
    full = evolve(OD30, tl, config, pulse=PULSE)
    quarter = evolve(
        OD30, tl, config,
        pulse=PulseEnvelope(fwhm=1.5, t_center=3.2, amplitude_norm=0.25),
    )
    assert np.allclose(quarter.emitted, 0.5 * full.emitted, atol=1e-13)


def test_two_port_run_is_the_sum_of_single_port_runs():
    config = SimulationConfig(t_end=6.0, n_z=96)
    tl = constant_drive(13.0, 6.0)
    stored = store_magnon(OD30, PULSE, 5.0, n_z=96)
    probe = PulseEnvelope(fwhm=1.5, t_center=0.6)

    run_a = evolve(OD30, tl, config, initial=stored.state)
    run_b = evolve(OD30, tl, config, pulse=probe)
    run_ab = evolve(OD30, tl, config, pulse=probe, initial=stored.state)

    assert np.allclose(run_ab.emitted, run_a.emitted + run_b.emitted, atol=1e-12)
    assert np.allclose(
        run_ab.final_state.sigma12,
        run_a.final_state.sigma12 + run_b.final_state.sigma12,
        atol=1e-12,
    )


def test_bookkeeping_closes_through_storage():
    stored = store_magnon(OD30, PULSE, 5.0)
    traj = stored.trajectory
    assert abs(traj.final_state.bookkeeping_residual()) < 1e-12
    # Ledger loss against the independent quadrature of 2 gamma31 |P|^2.
    fin = traj.final_state
    assert traj.loss_quad == pytest.approx(fin.loss_accum, rel=1e-4)
    # Once injection has finished the split plus the emitted ledger
    # carries the full input norm at any later sample time.
    photon, magnon, excited, loss = traj.norm_split_at(7.0)
    emitted = traj.emitted_norm_between(0.0, 7.0)
    assert photon + magnon + excited + loss + emitted == pytest.approx(
        traj.input_norm, abs=1e-4
    )


def test_storage_efficiency_has_an_interior_maximum():
    effs = {
        rabi: store_magnon(OD30, PULSE, rabi).efficiency
        for rabi in (2.0, 5.0, 12.0)
    }
    assert effs[5.0] > effs[2.0]
    assert effs[5.0] > effs[12.0]


def test_storage_efficiency_frozen_values_and_depth_ordering():
    low = store_magnon(OD30, PULSE, 5.0).efficiency
    high = store_magnon(MediumParams(od=150.0), PULSE, 11.0, n_z=240).efficiency
    assert low == pytest.approx(0.73013, abs=2e-3)
    assert high == pytest.approx(0.87413, abs=2e-3)
    assert high > low


def test_store_magnon_returns_a_pure_spin_wave():
    stored = store_magnon(OD30, PULSE, 5.0)
    assert np.all(stored.state.e_field == 0)
    assert np.all(stored.state.sigma13 == 0)
    assert 0.0 < stored.efficiency < 1.0
    assert stored.residual >= 0.0
    assert stored.state.magnon_norm == pytest.approx(
        stored.efficiency * stored.trajectory.input_norm, rel=1e-12
    )


def test_storage_efficiency_requires_a_storage_segment():
    tl = constant_drive(5.0, 4.0, label="storage")
    traj = evolve(OD30, tl, SimulationConfig(t_end=6.0, n_z=96), pulse=PULSE)
    eff = storage_efficiency(traj, tl)
    assert 0.0 <= eff <= 1.0
    with pytest.raises(ConfigError):
        storage_efficiency(traj, constant_drive(5.0, 4.0, label="readout"))


def test_v_group_limits():
    assert v_group(OD30, 0.0) == 0.0
    assert v_group(OD30, 20.0) == pytest.approx(12.0 * 400.0 / 1120.0)
    empty = MediumParams(od=0.0)
    assert v_group(empty, 7.0) == pytest.approx(empty.c_eff)


def test_dsp_projection_is_a_rotation():
    stored = store_magnon(OD30, PULSE, 5.0)
    state = stored.state
    for rabi in (0.0, 3.0, 40.0):
        dark, bright = dsp_project(state, rabi, OD30)
        assert np.allclose(
            np.abs(dark) ** 2 + np.abs(bright) ** 2,
            np.abs(state.e_field) ** 2 + np.abs(state.sigma12) ** 2,
            atol=1e-12,
        )
    # Control off: the dark polariton is the (negated) spin wave.
    dark, _ = dsp_project(state, 0.0, OD30)
    assert np.allclose(dark, -state.sigma12, atol=1e-12)


def test_dsp_projection_varies_continuously_along_a_ramp():
    stored = store_magnon(OD30, PULSE, 5.0)
    sqrt_dz = np.sqrt(stored.state.dz)
    rabis = np.linspace(0.0, 20.0, 101)
    darks = [dsp_project(stored.state, w, OD30)[0] for w in rabis]
    steps = [
        np.linalg.norm(a - b) * sqrt_dz for a, b in zip(darks, darks[1:])
    ]
    assert max(steps) < 0.01


def test_overlap_basics_and_guards():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    assert overlap(a, 2j * a) == pytest.approx(1.0)
    assert overlap(a, b) == 0.0
    with pytest.raises(ConfigError):
        overlap(a, np.ones(3, dtype=complex))
    with pytest.raises(ConfigError):
        overlap(a, np.zeros(2, dtype=complex))


def test_simulation_config_guards():
    with pytest.raises(ConfigError):
        SimulationConfig(t_end=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(t_end=1.0, record_every=0)
    with pytest.raises(ConfigError):
        SimulationConfig(t_end=1.0, n_z=15)


def test_a_non_finite_drive_stops_the_run():
    def broken(t):
        return np.where(t > 0.5, np.nan, 5.0)

    tl = ControlTimeline((ControlSegment(0.0, 2.0, broken, "beamsplit"),))
    with pytest.raises(PhysicsViolation, match="non-finite"):
        evolve(OD30, tl, SimulationConfig(t_end=2.0, n_z=16), pulse=PULSE)


def test_a_one_step_run_keeps_its_time_step():
    config = SimulationConfig(t_end=1e-3, n_z=16)
    traj = evolve(OD30, constant_drive(5.0), config, pulse=PULSE)
    assert traj.times.size == 1
    assert traj.dt == 1.0 / (16 * 12.0)
    assert traj.times[0] == 0.5 * traj.dt
    assert traj.emitted_norm_between(0.0, 1.0) == pytest.approx(
        traj.final_state.emitted_norm, abs=1e-15
    )
    assert abs(traj.final_state.bookkeeping_residual()) < 1e-15


def test_control_is_the_timeline_sampled_at_the_step_midpoints():
    tl = ControlTimeline(
        (
            ControlSegment(0.0, 1.0, 5.0, "storage", ramp=0.3),
            ControlSegment(1.5, 3.0, 13.0 + 2.0j, "beamsplit", ramp=0.5),
        )
    )
    traj = evolve(OD30, tl, SimulationConfig(t_end=3.2, n_z=32), pulse=PULSE)
    assert np.array_equal(traj.control, tl.rabi(traj.times))
    assert np.allclose(np.diff(traj.times), traj.dt, rtol=1e-9, atol=0)


def _gaussian(t, fwhm, t_center):
    # Unit-norm input amplitude; fwhm of |a|^2.
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return math.sqrt(peak) * np.exp(-((t - t_center) ** 2) / (4.0 * sigma**2))


def _eit_output(a_in, dt, od, delta, rabi, gamma31=1.0, gamma12=0.0, c_eff=12.0):
    """Field leaving a unit-length cell, from the transfer function H(omega).

    With fields written E(t) = int E(omega) exp(-i omega t) d omega,

        H(omega) = exp(i omega L / c - (od gamma31 / 2) / D(omega)),
        D(omega) = gamma31 - i delta - i omega + |rabi|^2 / (4 (gamma12 - i omega)).

    At zero drive and detuning, |H(0)|^2 = exp(-od).  The input is padded
    eightfold so the FFT's circular convolution does not wrap.
    """
    m = 1 << math.ceil(math.log2(8 * a_in.size))
    # numpy's forward FFT carries exp(-2 pi i f t): that is omega = -2 pi f.
    omega = -2.0 * math.pi * np.fft.fftfreq(m, dt)
    slow = gamma12 - 1j * omega
    inv_d = slow / ((gamma31 - 1j * delta - 1j * omega) * slow + 0.25 * abs(rabi) ** 2)
    h = np.exp(1j * omega / c_eff - 0.5 * od * gamma31 * inv_d)
    return np.fft.ifft(np.fft.fft(a_in, m) * h)[: a_in.size]


def test_constant_drive_run_matches_the_eit_transfer_function():
    # The deepest, most weakly driven corner of the benchmark's box, where
    # err * n_z^2 is largest; the tolerance 0.33 / n_z^2 is the benchmark's.
    od, delta, rabi = 40.0, -1.5, 10.0
    fwhm, t_center = 1.5, 5.0

    def error(n_z, od_ref):
        traj = evolve(
            MediumParams(od=od, delta=delta), constant_drive(rabi, 1000.0),
            SimulationConfig(t_end=10.0, n_z=n_z),
            pulse=PulseEnvelope(fwhm=fwhm, t_center=t_center),
        )
        want = _eit_output(_gaussian(traj.times, fwhm, t_center), traj.dt,
                           od_ref, delta, rabi)
        return np.linalg.norm(traj.emitted - want) / np.linalg.norm(want)

    tol = 0.33 / 64**2
    assert error(64, od) < tol
    assert error(64, 1.001 * od) > tol
    # Strang splitting is second order: halving the grid quadruples the error.
    assert error(32, od) / error(64, od) == pytest.approx(4.0, rel=0.05)


def _reference_evolve(medium, timeline, n_z, t_end, pulse):
    """The step loop written out: one expm per step, full-array norms."""
    dz = medium.length / n_z
    dt = dz / medium.c_eff
    sqrt_c = math.sqrt(medium.c_eff)
    g = medium.coupling
    v = np.zeros((3, n_z), dtype=complex)
    emitted = []
    loss = loss_quad = 0.0

    def norm(x):
        return dz * np.sum(np.abs(x) ** 2)

    for n in range(int(math.ceil(t_end / dt - 1e-9))):
        t = (n + 0.5) * dt
        omega = complex(timeline.rabi(t))
        gen = np.array([
            [0.0, 1j * g, 0.0],
            [1j * g, -(medium.gamma31 - 1j * medium.delta), 0.5j * omega],
            [0.0, 0.5j * np.conj(omega), -medium.gamma12],
        ])
        u = expm(gen * 0.5 * dt)
        before = norm(v)
        v = u @ v
        loss += before - norm(v)
        emitted.append(sqrt_c * v[0, -1])
        v[0, 1:] = v[0, :-1]
        v[0, 0] = pulse.amplitude(t) / sqrt_c
        loss_quad += dt * (2 * medium.gamma31 * norm(v[1])
                           + 2 * medium.gamma12 * norm(v[2]))
        before = norm(v)
        v = u @ v
        loss += before - norm(v)
    return np.array(emitted), v, loss, loss_quad


def test_step_loop_matches_the_written_out_reference():
    medium = MediumParams(od=30.0, delta=-2.0, gamma12=0.05)
    tl = ControlTimeline(
        (
            ControlSegment(0.0, 2.0, 5.0, "storage", ramp=0.3),
            ControlSegment(2.5, 4.0, 13.0 + 2.0j, "beamsplit", ramp=0.5),
        )
    )
    traj = evolve(medium, tl, SimulationConfig(t_end=4.5, n_z=32), pulse=PULSE)
    emitted, v, loss, loss_quad = _reference_evolve(medium, tl, 32, 4.5, PULSE)
    fin = traj.final_state
    assert np.allclose(traj.emitted, emitted, rtol=0, atol=1e-13)
    assert np.allclose(fin.e_field, v[0], rtol=0, atol=1e-13)
    assert np.allclose(fin.sigma13, v[1], rtol=0, atol=1e-13)
    assert np.allclose(fin.sigma12, v[2], rtol=0, atol=1e-13)
    assert fin.loss_accum == pytest.approx(loss, rel=0, abs=1e-13)
    assert traj.loss_quad == pytest.approx(loss_quad, rel=1e-12)
    assert abs(fin.bookkeeping_residual()) < 1e-13
