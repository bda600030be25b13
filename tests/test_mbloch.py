import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from magnonbs import mbloch
from magnonbs import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    FieldState,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    SimulationConfig,
    evolve,
    make_grid,
)
from magnonbs.core import C_EFF
from magnonbs.scenarios import store, v_group

OD30 = MediumParams(od=30.0)
PULSE = PulseEnvelope(fwhm=1.5, t_center=3.2)


def constant_drive(rabi, t_end=12.0, label="beamsplit"):
    return ControlTimeline((ControlSegment(0.0, t_end, rabi, label),))


def test_vacuum_propagation_is_a_pure_delay():
    # Empty cell: the emitted field is the input shifted by the transit
    # time 1 / C_EFF; the advection step moves exactly one cell per step,
    # so the shape is preserved to interpolation accuracy.
    medium = MediumParams(od=0.0)
    pulse = PulseEnvelope(fwhm=1.5, t_center=5.0)
    traj = evolve(
        medium, constant_drive(0.0, 10.0), SimulationConfig(t_end=10.0, n_z=160),
        pulse=pulse,
    )
    assert traj.emitted_norm == pytest.approx(traj.input_norm, rel=1e-6)
    expected = pulse.amplitude(traj.times - 1.0 / C_EFF)
    num = abs(np.vdot(expected, traj.emitted)) ** 2
    den = np.sum(np.abs(expected) ** 2) * np.sum(np.abs(traj.emitted) ** 2)
    assert num / den > 0.9999
    assert traj.loss_accum < 1e-12


def test_eit_transparency_at_strong_drive():
    traj = evolve(
        OD30, constant_drive(20.0), SimulationConfig(t_end=12.0, n_z=160),
        pulse=PULSE,
    )
    transmission = traj.emitted_norm / traj.input_norm
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
    stored = store([(OD30, 5.0)], 96)[0]
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
    stored = store([(OD30, 5.0)], 160)[0]
    traj = stored.trajectory
    # Ledger loss against the independent quadrature of 2 gamma31 |P|^2.
    fin = traj.final_state
    assert traj.loss_quad == pytest.approx(traj.loss_accum, rel=1e-4)
    # The ledger's emitted norm is the emitted field's: rerun the same
    # write, recording its emission, and sum that field independently of
    # the ledger.  The storage run recorded none.
    t_off = PULSE.t_center + 0.5 / v_group(OD30, 5.0)
    rerun = evolve(
        OD30, ControlTimeline((ControlSegment(0.0, t_off, 5.0, "storage"),)),
        SimulationConfig(t_end=t_off + 3.0), pulse=PULSE,
    )
    assert traj.emitted.size == 0 and rerun.emitted.size == SimulationConfig(t_off + 3.0).n_steps
    for name in ("e_field", "sigma12", "sigma13", "t_now"):
        assert np.array_equal(getattr(rerun.final_state, name), getattr(fin, name)), name
    for name in ("initial_norm", "injected_norm", "emitted_norm"):
        assert getattr(rerun, name) == getattr(traj, name), name
    emitted = rerun.dt * np.sum(np.abs(rerun.emitted) ** 2)
    assert emitted == pytest.approx(traj.emitted_norm, rel=1e-12)


def test_storage_efficiency_has_an_interior_maximum():
    effs = {
        rabi: store([(OD30, rabi)], 160)[0].efficiency
        for rabi in (2.0, 5.0, 12.0)
    }
    assert effs[5.0] > effs[2.0]
    assert effs[5.0] > effs[12.0]


def test_storage_efficiency_frozen_values_and_depth_ordering():
    low = store([(OD30, 5.0)], 160)[0].efficiency
    high = store([(MediumParams(od=150.0), 11.0)], 240)[0].efficiency
    assert low == pytest.approx(0.73013, abs=2e-3)
    assert high == pytest.approx(0.87413, abs=2e-3)
    assert high > low


def test_storage_returns_a_pure_spin_wave():
    stored = store([(OD30, 5.0)], 160)[0]
    assert np.all(stored.state.e_field == 0)
    assert np.all(stored.state.sigma13 == 0)
    assert 0.0 < stored.efficiency < 1.0
    assert stored.state.magnon_norm == pytest.approx(
        stored.efficiency * stored.trajectory.input_norm, rel=1e-12
    )


def test_v_group_limits():
    assert v_group(OD30, 0.0) == 0.0
    assert v_group(OD30, 20.0) == pytest.approx(12.0 * 400.0 / 1120.0)
    empty = MediumParams(od=0.0)
    assert v_group(empty, 7.0) == pytest.approx(C_EFF)


@pytest.mark.parametrize("rabi", [0.0, 1e200, math.nan])
def test_a_storage_drive_without_a_finite_group_velocity_is_a_config_error(rabi, monkeypatch):
    # |Omega|^2 overflows to inf at 1e200, which leaves the group velocity
    # NaN; the stage fails before any map is built, whichever stage it is.
    def forbidden(*args, **kwargs):
        raise AssertionError("a step map was built")

    monkeypatch.setattr(mbloch, "expm", forbidden)
    with pytest.raises(ConfigError, match="storage drive must be nonzero and finite"):
        store([(OD30, 5.0), (OD30, rabi)], 16)


def test_simulation_config_guards():
    with pytest.raises(ConfigError):
        SimulationConfig(t_end=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(t_end=1.0, n_z=15)
    with pytest.raises(ConfigError):
        SimulationConfig(t_end=1.0, snapshot_times=(-0.1,))
    with pytest.raises(ConfigError):
        SimulationConfig(t_end=1.0, snapshot_times=(0.5, 1.1))


@pytest.mark.parametrize("n_z", [16, 160])
def test_a_run_may_take_up_to_the_step_bound(n_z):
    # A run's per-step arrays have one row per step, so the step count is
    # bounded where the config is built; the bound itself still constructs.
    dt = 1.0 / n_z / C_EFF
    at = SimulationConfig(t_end=mbloch._MAX_STEPS * dt, n_z=n_z)
    assert at.n_steps == mbloch._MAX_STEPS
    for t_end in ((mbloch._MAX_STEPS + 1) * dt, 1e12, 1e308):
        with pytest.raises(ConfigError, match="more than 4194304"):
            SimulationConfig(t_end=t_end, n_z=n_z)


def test_a_non_finite_state_stops_the_run():
    # A NaN in the seeded spin wave spreads through the whole state; the
    # in-loop check must stop the run rather than return NaN outputs.
    n_z = 16
    spin = np.full(n_z, 0.25, dtype=complex)
    spin[n_z // 2] = np.nan
    zero = np.zeros(n_z, dtype=complex)
    seeded = FieldState(make_grid(n_z), zero, spin, zero)
    with pytest.raises(PhysicsViolation, match="non-finite"):
        evolve(OD30, constant_drive(5.0, 2.0), SimulationConfig(t_end=2.0, n_z=n_z),
               initial=seeded)


def test_a_state_that_overflows_after_its_first_check_stops_the_run(monkeypatch):
    # 192 steps, fewer than one period of the periodic ledger reads: the
    # drive starts after step 0, and its half maps gain 1e3 each, so the
    # state overflows within the run and only the checks at the last step
    # can see it.
    local_maps = mbloch._local_maps

    def gaining(medium, drives, dt_half):
        maps = local_maps(medium, drives, dt_half)
        maps[drives != 0] *= 1e3
        return maps

    monkeypatch.setattr(mbloch, "_local_maps", gaining)
    tl = ControlTimeline((ControlSegment(0.5, 1.0, 5.0, "beamsplit"),))
    config = SimulationConfig(t_end=1.0, n_z=16)
    assert math.ceil(config.t_end * 16 * C_EFF) < mbloch._CHECK_EVERY
    with np.errstate(all="ignore"), pytest.raises(PhysicsViolation,
                                                  match="non-finite state norm"):
        evolve(OD30, tl, config, pulse=PULSE)


def test_a_held_norm_above_the_input_stops_the_run(monkeypatch):
    # Half maps of 1.001 x identity on a stored spin wave, which no step
    # emits: the held norm outgrows the input by far more than roundoff at
    # the first ledger read.
    monkeypatch.setattr(mbloch, "_local_maps",
                        lambda medium, drives, dt_half: np.broadcast_to(
                            1.001 * np.eye(6), (drives.size, 6, 6)))
    n_z = 16
    zero = np.zeros(n_z, dtype=complex)
    seeded = FieldState(make_grid(n_z), zero, np.full(n_z, 0.25, dtype=complex), zero)
    with pytest.raises(PhysicsViolation, match="exceeds input"):
        evolve(OD30, constant_drive(5.0, 1.0), SimulationConfig(t_end=1.0, n_z=n_z),
               initial=seeded)


@pytest.mark.parametrize("gain", [1.0002, 1.00005])
def test_a_gain_whose_norm_has_left_the_cell_stops_the_run_before_its_end(gain, monkeypatch):
    # Half maps of gain x identity on an empty cell that a pulse crosses:
    # the light leaves with more norm than it brought, 0.013 more at a
    # gain of 1.0002, while the cell never holds more than the input.  So
    # only the held plus the emitted norm shows the fault, at a periodic
    # ledger read long before the last step.
    monkeypatch.setattr(mbloch, "_local_maps",
                        lambda medium, drives, dt_half: np.broadcast_to(
                            gain * np.eye(6), (drives.size, 6, 6)))
    config = SimulationConfig(t_end=6.0, n_z=16)
    with pytest.raises(PhysicsViolation, match="plus emitted norm") as raised:
        evolve(MediumParams(od=0.0), constant_drive(0.0, 6.0), config,
               pulse=PulseEnvelope(fwhm=1.0, t_center=2.0))
    t = float(re.search(r"at t=(\S+)$", str(raised.value)).group(1))
    assert t < config.t_end - config.dt


def test_a_run_continued_from_a_final_state_is_the_uninterrupted_run():
    # One run of 4,800 steps against its first 1,920 steps and a second
    # run from their final state, restarted at t = 0 under the same
    # constant drive, with the pulse's center moved back by the split.
    # Measured: the emission and the fields agree to 2e-16, the ledger
    # sums to 2e-15.
    n_z = 32
    dt = 1.0 / (n_z * C_EFF)
    medium = MediumParams(od=20.0, delta=1.0, gamma12=0.01)
    split, t_end = 1920 * dt, 4800 * dt

    def run(duration, pulse, initial=None):
        timeline = ControlTimeline((ControlSegment(0.0, duration, 8.0, "beamsplit", ramp=0.0),))
        return evolve(medium, timeline, SimulationConfig(t_end=duration, n_z=n_z),
                      pulse=pulse, initial=initial)

    whole = run(t_end, PULSE)
    first = run(split, PULSE)
    second = run(t_end - split, replace(PULSE, t_center=PULSE.t_center - split),
                 replace(first.final_state, t_now=0.0))
    assert (first.emitted.size, second.emitted.size) == (1920, 2880)
    held = first.final_state
    assert second.initial_norm == pytest.approx(
        held.photon_norm + held.magnon_norm + held.excited_norm, rel=1e-13)
    assert np.abs(np.concatenate([first.emitted, second.emitted]) - whole.emitted).max() < 1e-12
    for name in ("e_field", "sigma12", "sigma13"):
        gap = getattr(second.final_state, name) - getattr(whole.final_state, name)
        assert np.abs(gap).max() < 1e-12, name
    for name in ("emitted_norm", "injected_norm", "loss_accum"):
        parts = getattr(first, name) + getattr(second, name)
        assert parts == pytest.approx(getattr(whole, name), rel=0, abs=1e-12), name


def _stored_wave(z):
    return np.exp(-((z - 0.45) / 0.18) ** 2) * np.exp(0.7j * z)


def _readout_efficiency(od, rabi, delta):
    """The share of a stored spin wave that a constant drive reads out of
    the cell, from the Laplace transform of the equations at gamma12 = 0.

    For the spin wave S0 at t = 0 the amplitude leaving at z = 1 is

        E(1, s) = (G Omega / (2 C s D)) int_0^1 exp(-G^2 (1 - z) / (C D) + s z / C) S0(z) dz,
        D(s) = s + 1 - i delta + Omega^2 / (4 s),

    up to a phase, and the efficiency is (C / 2 pi) int |E(1, i w)|^2 dw
    over int |S0|^2.  exp(s z / C) is the retardation of light emitted at
    z after t = 0.  The z-integrals are trapezoid sums on 4,001 points,
    the w-integral is adaptive quadrature, and G comes from the optical
    depth as od = 2 G^2 / C.
    """
    g = math.sqrt(od * C_EFF / 2.0)
    z = np.linspace(0.0, 1.0, 4001)
    weights = np.full(z.size, 1.0 / (z.size - 1))
    weights[[0, -1]] *= 0.5
    weighted = weights * _stored_wave(z)

    def spectrum(omega):
        s = 1j * omega
        sd = s * s + (1.0 - 1j * delta) * s + 0.25 * rabi * rabi  # s D(s)
        kernel = np.exp(-g * g * s * (1.0 - z) / (C_EFF * sd) + s * z / C_EFF)
        return abs(g * rabi / (2.0 * C_EFF * sd) * np.dot(kernel, weighted)) ** 2

    emitted = quad(spectrum, -np.inf, np.inf, limit=500, epsabs=1e-14, epsrel=1e-12)[0]
    stored = np.dot(weights, np.abs(_stored_wave(z)) ** 2)
    return C_EFF / (2.0 * math.pi) * emitted / stored


def test_readout_of_a_stored_wave_matches_its_continuum_reference():
    # A spin wave read out under a constant drive to t = 60, on 80 and 160
    # cells, extrapolated.  Measured: R(80, 160) is within 5.3e-10 to
    # 2.8e-9 of the reference, the n_z 160 run within 1.3e-6 to 8.4e-6, the
    # error falls 4.00x per halving, and the reference at 1.001 od moves
    # by 1.1e-4 to 1.7e-4.
    cases = ((10.0, 6.0, 0.0), (30.0, 13.0, 0.0), (30.0, 8.0, 2.0))
    runs = []
    for od, rabi, delta in cases:
        timeline = ControlTimeline((ControlSegment(0.0, 60.0, rabi, "readout", ramp=0.0),))
        for n_z in (80, 160):
            z = make_grid(n_z)
            zero = np.zeros(n_z, dtype=complex)
            runs.append((MediumParams(od=od, delta=delta), timeline,
                         SimulationConfig(t_end=60.0, n_z=n_z, record_emission=False), None,
                         FieldState(z, zero, _stored_wave(z), zero)))
    trajectories = mbloch.evolve_batch(runs)
    for k, (od, rabi, delta) in enumerate(cases):
        coarse, fine = (t.emitted_norm / t.initial_norm for t in trajectories[2 * k : 2 * k + 2])
        extrapolated = (4.0 * fine - coarse) / 3.0
        reference = _readout_efficiency(od, rabi, delta)
        assert abs(extrapolated - reference) < 1e-7
        assert (coarse - reference) / (fine - reference) == pytest.approx(4.0, abs=0.05)
        assert abs(extrapolated - _readout_efficiency(1.001 * od, rabi, delta)) > 1e-7


def test_a_one_step_run_keeps_its_time_step():
    config = SimulationConfig(t_end=1e-3, n_z=16)
    traj = evolve(OD30, constant_drive(5.0), config, pulse=PULSE)
    assert traj.times.size == 1
    assert traj.dt == 1.0 / (16 * 12.0)
    assert traj.times[0] == 0.5 * traj.dt
    assert traj.dt * np.sum(np.abs(traj.emitted) ** 2) == pytest.approx(
        traj.emitted_norm, abs=1e-15
    )


def test_batch_members_own_their_outputs():
    # The emitted field is frozen as the solver hands it over, and each
    # member computes its own step times: writing one changes no sibling's.
    run = (OD30, constant_drive(5.0, 1.0), SimulationConfig(t_end=1.0, n_z=16), PULSE, None)
    a, b = mbloch.evolve_batch([run, run])
    for traj in (a, b):
        with pytest.raises(ValueError, match="read-only"):
            traj.emitted[0] = 0.0
    assert not np.shares_memory(a.times, b.times)
    a.times[0] = -1.0
    assert a.times[0] == b.times[0] == 0.5 * a.dt


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


def _reference_evolve(medium, timeline, n_z, t_end, pulse=None, initial=None,
                      states_at=()):
    """The step loop written out: one expm per step, full-array norms.

    Returns the emitted field, the final state, the loss ledger, the loss
    quadrature and, for each step in `states_at`, the state at the end of
    that step.
    """
    dz = 1.0 / n_z
    dt = dz / 12.0
    sqrt_c = math.sqrt(12.0)
    g = medium.coupling
    v = np.zeros((3, n_z), dtype=complex)
    if initial is not None:
        v[:] = initial.e_field, initial.sigma13, initial.sigma12
    emitted = []
    states = {}
    loss = loss_quad = 0.0

    def norm(x):
        return dz * np.sum(np.abs(x) ** 2)

    for n in range(int(math.ceil(t_end / dt - 1e-9))):
        t = (n + 0.5) * dt
        omega = timeline.rabi(t)
        gen = np.array([
            [0.0, 1j * g, 0.0],
            [1j * g, -(1.0 - 1j * medium.delta), 0.5j * omega],
            [0.0, 0.5j * omega, -medium.gamma12],
        ])
        u = expm(gen * 0.5 * dt)
        before = norm(v)
        v = u @ v
        loss += before - norm(v)
        emitted.append(sqrt_c * v[0, -1])
        v[0, 1:] = v[0, :-1]
        v[0, 0] = pulse.amplitude(t) / sqrt_c if pulse is not None else 0.0
        loss_quad += dt * (2 * norm(v[1]) + 2 * medium.gamma12 * norm(v[2]))
        before = norm(v)
        v = u @ v
        loss += before - norm(v)
        if n in states_at:
            states[n] = v.copy()
    return np.array(emitted), v, loss, loss_quad, states


def _assert_state_matches(state, v):
    assert np.allclose(state.e_field, v[0], rtol=0, atol=1e-13)
    assert np.allclose(state.sigma13, v[1], rtol=0, atol=1e-13)
    assert np.allclose(state.sigma12, v[2], rtol=0, atol=1e-13)


@pytest.fixture(scope="module")
def reference_case():
    """One run's settings and its written-out reference, computed once.

    A detuned, lossy, ramped run that starts from a stored spin wave and
    takes a probe pulse too.  The stored wave and the reference are built
    before any test patches the solver, so a patch reaches only the run
    under test.
    """
    n_z = 32
    dt = 1.0 / (n_z * 12.0)
    medium = MediumParams(od=30.0, delta=-2.0, gamma12=0.05)
    tl = ControlTimeline(
        (
            ControlSegment(0.0, 2.0, 5.0, "storage", ramp=0.3),
            ControlSegment(2.5, 4.0, 13.0, "beamsplit", ramp=0.5),
        )
    )
    stored = store([(OD30, 5.0)], n_z)[0].state
    # Step 1036 ends inside the beamsplit turn-on ramp; step 512 is one the
    # in-loop norm checks read as well.
    snap_steps = (512, 1036)
    config = SimulationConfig(t_end=4.5, n_z=n_z,
                              snapshot_times=tuple((n + 1) * dt for n in snap_steps))
    reference = _reference_evolve(
        medium, tl, n_z, 4.5, PULSE, initial=stored, states_at=snap_steps
    )
    return medium, tl, config, stored, snap_steps, reference


def _check_against_the_reference(case):
    medium, tl, config, stored, snap_steps, reference = case
    dt = 1.0 / (config.n_z * 12.0)
    traj = evolve(medium, tl, config, pulse=PULSE, initial=stored)
    emitted, v, loss, loss_quad, states = reference
    assert np.allclose(traj.emitted, emitted, rtol=0, atol=1e-13)
    _assert_state_matches(traj.final_state, v)
    assert traj.loss_accum == pytest.approx(loss, rel=0, abs=1e-13)
    assert traj.loss_quad == pytest.approx(loss_quad, rel=1e-12)
    assert traj.initial_norm == pytest.approx(stored.magnon_norm, rel=1e-13)
    for snap, n in zip(traj.snapshots, snap_steps, strict=True):
        assert snap.t_now == pytest.approx((n + 1) * dt, rel=1e-12)
        _assert_state_matches(snap, states[n])


def test_step_loop_matches_the_written_out_reference(reference_case):
    _check_against_the_reference(reference_case)


def test_step_loop_in_blocks_of_five_steps_matches_the_reference(reference_case, monkeypatch):
    # Blocks of the step loop then end inside the ramps, on snapshot and
    # ledger-read steps, and at the last step, not only at ledger reads.
    monkeypatch.setattr(mbloch, "_RING", 5)
    _check_against_the_reference(reference_case)


def test_step_maps_built_in_small_blocks_match_the_reference(reference_case, monkeypatch):
    # Three drive runs per block, so that blocks meet inside the ramps.
    monkeypatch.setattr(mbloch, "_MAP_FLOATS", 10_000)
    assert mbloch._block_sizes(1, reference_case[2].n_z)[1] == 3
    calls = []
    local_maps = mbloch._local_maps
    monkeypatch.setattr(
        mbloch, "_local_maps", lambda *args: calls.append(1) or local_maps(*args)
    )
    _check_against_the_reference(reference_case)
    assert len(calls) > 100


def test_control_is_the_timeline_sampled_at_the_step_midpoints():
    # A two-segment ramped timeline: the steps sit at (n + 1/2) dt, and the
    # run follows the written-out reference, which samples the drive there.
    n_z = 32
    dt = 1.0 / (n_z * 12.0)
    tl = ControlTimeline(
        (
            ControlSegment(0.0, 1.0, 5.0, "storage", ramp=0.3),
            ControlSegment(1.5, 3.0, 13.0, "beamsplit", ramp=0.5),
        )
    )
    traj = evolve(OD30, tl, SimulationConfig(t_end=3.2, n_z=n_z), pulse=PULSE)
    midpoints = (np.arange(math.ceil(3.2 / dt - 1e-9)) + 0.5) * dt
    assert traj.times.shape == midpoints.shape
    assert np.allclose(traj.times, midpoints, rtol=1e-12, atol=0)
    emitted, v, *_ = _reference_evolve(OD30, tl, n_z, 3.2, PULSE)
    assert np.allclose(traj.emitted, emitted, rtol=0, atol=1e-13)
    _assert_state_matches(traj.final_state, v)


def _batch_runs():
    """Seven runs on two grids, each grid's in no length order.

    Five on n_z 32, more than one step group holds, and two on n_z 24.
    Every run has its own medium, of its own depth, detuning and gamma12,
    and each grid's longest runs mix gamma12 = 0 with gamma12 > 0.
    Unequal lengths, distinct ramped drives, runs with only a pulse and
    only an initial state, initial states on both grids (one with light in
    the cell), two pulses (one shared by runs on both grids) and different
    snapshot times; each grid's longest run has a pulse.
    """
    stored = store([(OD30, 5.0)], 32)[0].state
    lit = FieldState(stored.z_grid, 0.5j * stored.sigma12, stored.sigma12, stored.sigma13)
    coarse = store([(OD30, 5.0)], 24)[0].state
    probe = PulseEnvelope(fwhm=1.0, t_center=1.0)

    def ramped(t_end, rabi, ramp):
        return ControlTimeline((
            ControlSegment(0.0, 0.6 * t_end, rabi, "storage", ramp=ramp),
            ControlSegment(0.7 * t_end, t_end, 1.5 * rabi, "beamsplit", ramp=ramp),
        ))

    def config(t_end, *snaps, n_z=32):
        return SimulationConfig(t_end=t_end, n_z=n_z, snapshot_times=snaps)

    return [
        (MediumParams(od=20.0, delta=-2.0), ramped(2.2, 7.0, 0.2), config(2.2), None, stored),
        (MediumParams(od=30.0, delta=-2.0, gamma12=0.05), ramped(4.5, 5.0, 0.3),
         config(4.5, 0.3, 2.7), PULSE, stored),
        (MediumParams(od=25.0, delta=1.5), ramped(2.8, 6.0, 0.2), config(2.8, 1.0, n_z=24),
         None, coarse),
        (MediumParams(od=50.0, delta=3.0, gamma12=0.2), ramped(3.0, 9.0, 0.4), config(3.0, 1.0),
         probe, None),
        (MediumParams(od=30.0, delta=1.0, gamma12=0.1), ramped(1.3, 4.0, 0.1),
         config(1.3, 1.3), None, lit),
        (MediumParams(od=40.0, gamma12=0.3), ramped(3.3, 5.0, 0.3), config(3.3, 2.0, n_z=24),
         PULSE, None),
        (OD30, ramped(3.6, 6.0, 0.25), config(3.6, 0.0), PULSE, None),
    ]


@pytest.fixture(scope="module")
def batch_references():
    """`_batch_runs()`, with each run's snapshot steps and written-out
    reference, computed once; a test's patches reach only the batch it steps.
    """
    runs = _batch_runs()
    references = []
    for medium, timeline, config, pulse, initial in runs:
        snap_steps = [max(0, round(t / config.dt) - 1) for t in config.snapshot_times]
        references.append((snap_steps, _reference_evolve(
            medium, timeline, config.n_z, config.t_end, pulse, initial, states_at=snap_steps
        )))
    return runs, references


def _assert_same_run(got, want):
    assert got.dt == want.dt
    assert np.array_equal(got.times, want.times)
    assert np.allclose(got.emitted, want.emitted, rtol=0, atol=1e-13)
    assert got.loss_quad == pytest.approx(want.loss_quad, rel=1e-13)
    assert len(got.snapshots) == len(want.snapshots)
    for name in ("loss_accum", "emitted_norm", "injected_norm", "initial_norm"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0, abs=1e-13)
    for a, b in zip((got.final_state, *got.snapshots), (want.final_state, *want.snapshots)):
        assert a.t_now == b.t_now
        for name in ("e_field", "sigma12", "sigma13"):
            assert np.allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-13)


def test_batch_members_equal_their_solo_runs_in_call_order():
    runs = _batch_runs()
    batch = mbloch.evolve_batch(runs)
    assert len(batch) == len(runs)
    for got, run in zip(batch, runs, strict=True):
        _assert_same_run(got, evolve(*run))


@pytest.mark.parametrize("map_block, ring", [(None, None), (3, None), (None, 5), (3, 5)],
                         ids=["None", "3", "ring5", "3-ring5"])
def test_batch_members_match_the_written_out_reference(map_block, ring, batch_references,
                                                       monkeypatch):
    # A budget that cuts the five n_z 32 runs to blocks of seven steps and
    # each member's maps to blocks of two drive runs: its blocks end inside
    # ramps, on snapshot and ledger steps and on members' last steps, and
    # each member's blocks of maps meet inside its ramps while the others
    # step on.  Fewer floats per drive run make blocks of three drive runs,
    # and a ring of five slots blocks of five steps.
    monkeypatch.setattr(mbloch, "_BUDGET", 11_520)
    assert mbloch._block_sizes(5, 32) == (7, 2)
    if map_block is not None:
        monkeypatch.setattr(mbloch, "_MAP_FLOATS", 144)
    if ring is not None:
        monkeypatch.setattr(mbloch, "_RING", ring)
    assert mbloch._block_sizes(5, 32) == (ring or 7, map_block or 2)
    assert mbloch._group_width(32) > 5
    runs, references = batch_references
    assert sum(config.n_z == 32 for _, _, config, _, _ in runs) == 5
    for traj, (_, _, config, _, _), (snap_steps, reference) in zip(
        mbloch.evolve_batch(runs), runs, references, strict=True
    ):
        dt = config.dt
        emitted, v, loss, loss_quad, states = reference
        assert traj.times[0] == pytest.approx(0.5 * dt, rel=1e-12)
        assert np.allclose(traj.emitted, emitted, rtol=0, atol=1e-13)
        _assert_state_matches(traj.final_state, v)
        assert traj.loss_accum == pytest.approx(loss, rel=0, abs=1e-13)
        assert traj.loss_quad == pytest.approx(loss_quad, rel=1e-12)
        assert len(traj.snapshots) == len(snap_steps)
        for snap, n in zip(traj.snapshots, snap_steps):
            assert snap.t_now == pytest.approx((n + 1) * dt, rel=1e-12)
            _assert_state_matches(snap, states[n])


def _wide_batch():
    """Fourteen runs on one grid, n_z 24, of every kind a step group mixes.

    Each has its own medium (depth, detuning and gamma12, zero in every
    other run), and its own two-segment drive, ramped in all but every
    third run; lengths differ, and runs without a pulse, which start with
    light in the cell, sit between runs with one.  Three pulses, one run
    with a pulse and a stored spin wave in four, and different snapshot
    times.  Two runs, one ramped, beamsplit at a drive of 8,000, whose
    half-step generators pass `expm`'s threshold for scaling.
    """
    stored = store([(OD30, 5.0)], 24)[0].state
    lit = FieldState(stored.z_grid, 0.5j * stored.sigma12, stored.sigma12, stored.sigma13)
    pulses = (PULSE, PulseEnvelope(fwhm=1.0, t_center=1.0),
              PulseEnvelope(fwhm=0.8, t_center=0.5, amplitude_norm=0.5), None)
    runs = []
    for k in range(14):
        t_end = 1.0 + 0.2 * ((5 * k) % 14)
        ramp = (0.0, 0.1, 0.25)[k % 3]
        timeline = ControlTimeline((
            ControlSegment(0.0, 0.5 * t_end, 4.0 + k, "storage", ramp=ramp),
            ControlSegment(0.6 * t_end, t_end, 8_000.0 if k % 7 == 6 else 6.0 + 0.5 * k,
                           "beamsplit", ramp=ramp),
        ))
        medium = MediumParams(od=10.0 + 5.0 * k, delta=(-3.0, 0.0, 2.5)[k % 3],
                              gamma12=(0.0, 0.1 * (k % 4))[k % 2])
        snaps = (0.4 * t_end,) if k % 3 else ()
        runs.append((medium, timeline, SimulationConfig(t_end=t_end, n_z=24, snapshot_times=snaps),
                     pulses[k % 4], (None, stored, None, lit)[k % 4]))
    return runs


@pytest.mark.parametrize("budget", [None, 6_000], ids=["budget", "small-budget"])
def test_a_wide_batch_equals_its_solo_runs(budget, monkeypatch):
    # The default budget steps the fourteen runs as one group.  A budget
    # of 6,000 floats steps them in groups of three, in blocks of eight
    # steps and of one drive run of maps.
    runs = _wide_batch()
    solo = [evolve(*run) for run in runs]
    widths = []
    step_together = mbloch._step_together

    def recording(z, members):
        widths.append(len(members))
        return step_together(z, members)

    monkeypatch.setattr(mbloch, "_step_together", recording)
    if budget is not None:
        monkeypatch.setattr(mbloch, "_BUDGET", budget)
        assert mbloch._block_sizes(3, 24) == (8, 1)
    for got, want in zip(mbloch.evolve_batch(runs), solo, strict=True):
        _assert_same_run(got, want)
        # Each member's maps are the ones it gets alone, whatever shares its
        # group, so all but the loss quadrature, which sums over the group's
        # blocks of steps, is the solo run's bit for bit.
        assert np.array_equal(got.emitted, want.emitted)
        for name in ("loss_accum", "emitted_norm"):
            assert getattr(got, name) == getattr(want, name), name
        for a, b in zip((got.final_state, *got.snapshots), (want.final_state, *want.snapshots)):
            for name in ("e_field", "sigma12", "sigma13"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert widths == ([14] if budget is None else [3, 3, 3, 3, 2])


def test_a_48_run_group_holds_no_more_than_the_budget():
    # Forty-eight ramped runs on n_z 160, one group.  At its widest the
    # ring would take 33 slots of 373 kB, and the maps of every drive run
    # of the group 7 MB.  What the group held beyond its outputs, at its
    # peak, is the budget's ring and maps, the windows of injected and
    # emitted cells (4 floats per member and step of a window), the drive
    # runs (2 numbers each: where it starts and its drive), and 64 kB for
    # the rest.
    n_z, b = 160, 48
    config = SimulationConfig(t_end=0.25, n_z=n_z)
    times = (np.arange(config.n_steps) + 0.5) * config.dt
    runs = []
    for k in range(b):
        timeline = ControlTimeline((ControlSegment(0.0, 0.25, 5.0 + 0.1 * k, "beamsplit",
                                                   ramp=0.1),))
        runs.append((MediumParams(od=30.0 + k), timeline, config, PULSE, None))
    drive_runs = sum(1 + np.count_nonzero(np.diff(run[1].rabi(times))) for run in runs)
    assert mbloch._group_width(n_z) >= b
    steps, map_runs = mbloch._block_sizes(b, n_z)
    assert steps < mbloch._RING and map_runs < drive_runs // b
    tracemalloc.start()
    try:
        trajectories = mbloch.evolve_batch(runs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trajectories) == b
    allowed = 8 * (mbloch._BUDGET + 4 * mbloch._CHECK_EVERY * b + 2 * drive_runs) + 65_536
    assert peak - held <= allowed


def test_a_run_that_records_no_emission_is_the_recording_run_without_it():
    # Every other member of the seven-run batch records no emission; each
    # is the recording batch's run bit for bit but for its emitted field.
    runs = _batch_runs()
    quiet = [(medium, timeline, replace(config, record_emission=bool(k % 2)), pulse, initial)
             for k, (medium, timeline, config, pulse, initial) in enumerate(runs)]
    for k, (got, want) in enumerate(zip(mbloch.evolve_batch(quiet), mbloch.evolve_batch(runs),
                                        strict=True)):
        assert want.emitted.size == runs[k][2].n_steps
        if k % 2:
            assert np.array_equal(got.emitted, want.emitted)
        else:
            assert got.emitted.size == got.times.size == 0
        assert got.loss_quad == want.loss_quad
        for name in ("emitted_norm", "injected_norm", "initial_norm"):
            assert getattr(got, name) == getattr(want, name), name
        assert len(got.snapshots) == len(want.snapshots)
        for a, b in zip((got.final_state, *got.snapshots), (want.final_state, *want.snapshots)):
            for name in ("e_field", "sigma12", "sigma13", "t_now"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_snapshots_move_no_ledger_number():
    # One pulsed run with 0, 1, 3 and 199 snapshot times.  A snapshot reads
    # the ledger and adds nothing to it, so the emission, the ledger and
    # every field of the final state are the run's without snapshots, bit
    # for bit.  The loss quadrature is left out: it sums by blocks of
    # steps, and a snapshot ends a block.
    medium = MediumParams(od=30.0, delta=1.5, gamma12=0.02)
    timeline = ControlTimeline((ControlSegment(0.0, 10.0, 13.0, "beamsplit"),))
    plain, *snapped = (
        evolve(medium, timeline, SimulationConfig(t_end=10.0, snapshot_times=times), PULSE)
        for times in ((), (5.0,), (1.0, 2.5, 7.3), tuple(0.05 * k for k in range(1, 200)))
    )
    for run in snapped:
        assert np.array_equal(run.emitted, plain.emitted)
        for name in ("emitted_norm", "injected_norm", "initial_norm"):
            assert getattr(run, name) == getattr(plain, name), name
        for name in ("e_field", "sigma12", "sigma13"):
            assert np.array_equal(getattr(run.final_state, name),
                                  getattr(plain.final_state, name)), name
    assert [len(run.snapshots) for run in snapped] == [1, 3, 199]


def _traced_peak(runs):
    tracemalloc.start()
    try:
        mbloch.evolve_batch(runs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _long_runs(n_steps, k, pulsed=True):
    """k runs of n_steps on n_z 16 under one constant drive, recording no
    emission, with two pulses between them."""
    config = SimulationConfig(t_end=n_steps / (16 * C_EFF), n_z=16, record_emission=False)
    assert config.n_steps == n_steps
    timeline = constant_drive(5.0, config.t_end)
    pulses = (PULSE, PulseEnvelope(fwhm=1.0, t_center=1.0)) if pulsed else (None,)
    return [(MediumParams(od=30.0 + i), timeline, config, pulses[i % len(pulses)], None)
            for i in range(k)]


def test_runs_recording_no_emission_hold_little_per_step():
    # Eight runs that record no emission, longer than several windows of
    # drive samples, hold nothing per step beyond their ledger reads, one
    # every _CHECK_EVERY steps: the read's step and its list of members,
    # about 190 B for eight members, here allowed 256 B (1 B per step;
    # the growth measured 0.75 B).  Their emitted fields alone would take
    # 128 B per step, and the drive sampled at every step at once 8 B.  The
    # first run of a process allocates caches once, so a run goes first.
    n1, n2 = 8_192, 32_768
    assert n1 >= 2 * mbloch._DRIVE_WINDOW
    _traced_peak(_long_runs(n1, 8))
    grown = _traced_peak(_long_runs(n2, 8)) - _traced_peak(_long_runs(n1, 8))
    assert grown < 256 * (n2 - n1) // mbloch._CHECK_EVERY


def test_planning_a_drive_that_changes_at_every_step_holds_nothing_per_step():
    # One run's maps, planned and dropped stretch by stretch, under a drive
    # that is one long ramp, so that every step is a drive run of its own:
    # the planning holds a window of samples and a block of drive runs,
    # whatever the run's length.  Its traced peak measured 666 kB at both
    # lengths; sampling the drive at every step at once grows it by 1.7 MB.
    def peak(n_steps):
        dt = 1.0 / (16 * C_EFF)
        t_end = n_steps * dt
        timeline = ControlTimeline((ControlSegment(0.0, t_end, 5.0, "beamsplit",
                                                   ramp=0.5 * t_end),))
        stretches = mbloch._map_segments(OD30, timeline, n_steps, dt,
                                         mbloch._block_sizes(1, 16)[1])
        tracemalloc.start()
        try:
            assert sum(1 for _ in stretches) >= n_steps
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32_768) - peak(8_192) < 8_192


# Steps of n_z 16 (dt = 1/192) at which the drive windows meet.
_SEAMS = tuple(k * mbloch._DRIVE_WINDOW / (16 * C_EFF) for k in (1, 2))
_S1, _S2 = _SEAMS
_DT16 = 1.0 / (16 * C_EFF)
_SEAM_TIMELINES = {
    # Ramps that run across each seam.
    "ramps": (ControlSegment(_S1 - 1.0, _S2 + 1.0, 7.0, "beamsplit", ramp=1.5),),
    # Edges at each seam, of abutting segments with ramp = 0.
    "abutting, ramp 0": (ControlSegment(0.0, _S1, 3.0, "storage", ramp=0.0),
                         ControlSegment(_S1, _S2, 5.0, "beamsplit", ramp=0.0),
                         ControlSegment(_S2, _S2 + 9.0, 4.0, "readout", ramp=0.0)),
    # Abutting ramped segments whose ramps meet at each seam.
    "abutting, ramped": (ControlSegment(0.5, _S1, 3.0, "storage", ramp=0.4),
                         ControlSegment(_S1, _S2, 5.0, "beamsplit", ramp=0.4)),
    # Gaps of zero drive across each seam.
    "gaps": (ControlSegment(0.0, _S1 - 0.3, 6.0, "storage", ramp=0.2),
             ControlSegment(_S1 + 0.4, _S2 - 0.2, 6.0, "beamsplit", ramp=0.2),
             ControlSegment(_S2 + 0.1, _S2 + 5.0, 6.0, "readout", ramp=0.2)),
    # Edges at the midpoints of the steps on either side of each seam.
    "edges a step from a seam": (
        ControlSegment(_S1 - 0.5 * _DT16, _S1 + 0.5 * _DT16, 9.0, "beamsplit", ramp=0.0),
        ControlSegment(_S2 - 0.5 * _DT16, _S2 + 5.0, 2.0, "readout", ramp=0.0)),
    # A drive that changes at every step across both seams.
    "one long ramp": (ControlSegment(0.0, 2.0 * _S2, 5.0, "beamsplit", ramp=_S2),),
}


def _recorded_maps(monkeypatch):
    # In place of the half maps, each drive run's drive in every entry; the
    # drives of each call, in call order.
    calls = []

    def drive_maps(medium, drives, dt_half):
        calls.append(drives.copy())
        return np.repeat(drives, 36).reshape(-1, 6, 6)

    monkeypatch.setattr(mbloch, "_local_maps", drive_maps)
    return calls


@pytest.mark.parametrize("n_steps", [4_095, 4_096, 4_097, 8_193])
@pytest.mark.parametrize("case", sorted(_SEAM_TIMELINES))
def test_window_sampled_drive_runs_are_the_timeline_at_every_midpoint(case, n_steps, monkeypatch):
    # Each stretch's drive, spread over its steps, is the timeline at every
    # step midpoint bit for bit; in one block, the drive runs are exactly
    # the runs of equal drive of the timeline sampled at every step at once.
    timeline = ControlTimeline(_SEAM_TIMELINES[case])
    control = timeline.rabi((np.arange(n_steps) + 0.5) * _DT16)
    calls = _recorded_maps(monkeypatch)
    got = np.empty(n_steps)
    start = 0
    for stop, _, half in mbloch._map_segments(OD30, timeline, n_steps, _DT16, n_steps):
        got[start:stop] = half[0, 0]
        start = stop
    assert start == n_steps
    assert np.array_equal(got, control)
    (drives,) = calls
    edges = np.flatnonzero(control[1:] != control[:-1]) + 1
    assert np.array_equal(drives, control[np.concatenate(([0], edges))])


def _whole_run_segments(medium, timeline, n_steps, dt, block):
    # The maps planned from the drive sampled at every step in one call.
    control = timeline.rabi((np.arange(n_steps) + 0.5) * dt)
    bounds = np.concatenate(([0], np.flatnonzero(control[1:] != control[:-1]) + 1, [n_steps]))
    drives = control[bounds[:-1]]
    for r0 in range(0, drives.size, block):
        r1 = min(r0 + block, drives.size)
        half = mbloch._local_maps(medium, drives[r0 : r1 + 1], 0.5 * dt)
        for s, (start, stop) in enumerate(zip(bounds[r0:r1], bounds[r0 + 1 : r1 + 1])):
            following = half[s + 1] if s + 1 < half.shape[0] else np.zeros((6, 6))
            if stop - start > 1:
                yield stop - 1, half[s] @ half[s], half[s]
            yield stop, following @ half[s], half[s]


@pytest.mark.parametrize("block", [1, 3, 1_000])
@pytest.mark.parametrize("case", sorted(_SEAM_TIMELINES))
def test_window_sampled_maps_are_the_whole_run_maps(case, block):
    medium = MediumParams(od=40.0, delta=-1.5, gamma12=0.05)
    timeline = ControlTimeline(_SEAM_TIMELINES[case])
    n_steps = 8_193
    got = mbloch._map_segments(medium, timeline, n_steps, _DT16, block)
    want = _whole_run_segments(medium, timeline, n_steps, _DT16, block)
    for (stop, fused, half), (stop_w, fused_w, half_w) in zip(got, want, strict=True):
        assert stop == stop_w
        assert np.array_equal(fused, fused_w)
        assert np.array_equal(half, half_w)


def test_a_constant_drive_across_several_windows_is_one_drive_run(monkeypatch):
    n_steps = 3 * mbloch._DRIVE_WINDOW + 5
    timeline = ControlTimeline((ControlSegment(0.0, n_steps * _DT16 + 1.0, 5.0, "beamsplit",
                                               ramp=0.0),))
    calls = _recorded_maps(monkeypatch)
    stretches = [stop for stop, *_ in mbloch._map_segments(OD30, timeline, n_steps, _DT16, 4)]
    assert stretches == [n_steps - 1, n_steps]
    assert len(calls) == 1 and calls[0].tolist() == [5.0]


def _exact_emission(medium, rabi, n_z, boundary):
    """The emitted field of a constant-drive run, from its transfer function.

    With U the half-step map of the generator in mbloch's docstring, each
    cell obeys v(n + 1) = A v(n) + b f(n), A = U diag(0, 1, 1) U, b = U e_E,
    and passes f' = (U v)_E to the next cell, so n_z cells take the
    boundary's z-transform through G(z)^n_z,
    G(z) = z^-1 e_E^T U (I - z^-1 A)^-1 b.  Evaluated on 16 times the steps
    of the unit circle, so that the response wraps round only where it has
    decayed.
    """
    g = math.sqrt(medium.od * C_EFF / 2.0)
    dt = 1.0 / (n_z * C_EFF)
    gen = np.array([[0.0, 1j * g, 0.0],
                    [1j * g, -(1.0 - 1j * medium.delta), 0.5j * rabi],
                    [0.0, 0.5j * rabi, -medium.gamma12]])
    u = expm(0.5 * dt * gen)
    a = u @ np.diag([0.0, 1.0, 1.0]) @ u
    n = boundary.size
    z_inv = np.exp(-2j * np.pi * np.arange(16 * n) / (16 * n))
    resolvent = np.linalg.solve(np.eye(3) - z_inv[:, None, None] * a,
                                np.broadcast_to(u[:, :1], (z_inv.size, 3, 1)))
    transfer = z_inv * (resolvent[..., 0] @ u[0])
    return np.fft.ifft(transfer**n_z * np.fft.fft(boundary, 16 * n))[:n]


@pytest.mark.parametrize("od, delta, gamma12, rabi", [
    (30.0, 0.0, 0.0, 5.0), (10.0, -2.0, 0.1, 8.0), (50.0, 3.0, 0.02, 12.0),
    (100.0, 1.0, 0.0, 20.0)])
def test_a_constant_drive_run_is_its_exact_discrete_transfer_function(od, delta, gamma12, rabi):
    # A run of ramp = 0 over three drive windows and part of a fourth.  The
    # relative gap measured 1.1e-14 to 8.3e-14; with od 1e-6 higher in the
    # reference it is 2.7e-7 to 1.3e-6.
    n_z = 16
    n_steps = 3 * mbloch._DRIVE_WINDOW + 700
    t_end = n_steps / (n_z * C_EFF)
    medium = MediumParams(od=od, delta=delta, gamma12=gamma12)
    timeline = ControlTimeline((ControlSegment(0.0, t_end + 1.0, rabi, "beamsplit", ramp=0.0),))
    pulse = PulseEnvelope(fwhm=1.5, t_center=4.0)
    traj = evolve(medium, timeline, SimulationConfig(t_end=t_end, n_z=n_z), pulse=pulse)
    assert traj.emitted.size == n_steps
    boundary = pulse.amplitude(traj.times)

    def gap(reference_medium):
        want = _exact_emission(reference_medium, rabi, n_z, boundary)
        return np.linalg.norm(traj.emitted - want) / np.linalg.norm(want)

    assert gap(medium) < 1e-12
    assert gap(replace(medium, od=od * (1.0 + 1e-6))) > 1e-12


def test_a_pulse_is_held_a_window_at_a_time():
    # What a pulse adds to the traced peak of a run, over the same run
    # without one, does not grow with the step count.
    n1, n2 = 2_048, 8_192
    extra = [_traced_peak(_long_runs(n, 1)) - _traced_peak(_long_runs(n, 1, pulsed=False))
             for n in (n1, n2)]
    assert extra[1] - extra[0] < n2 - n1


def test_a_bad_batch_is_a_config_error_before_any_step(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a step map was built")

    monkeypatch.setattr(mbloch, "expm", forbidden)
    tl = constant_drive(5.0, 2.0)
    with pytest.raises(ConfigError, match="at least one run"):
        mbloch.evolve_batch([])
    # n_z 32 steps by dt = 1/384, so the drive bound 1e3 is |Omega| = 3.84e5;
    # one segment past it fails the batch, whichever member holds it.
    config = SimulationConfig(t_end=1.0, n_z=32)
    strong = ControlTimeline((ControlSegment(0.0, 0.5, 1.0, "storage"),
                              ControlSegment(0.5, 1.0, -3.9e5, "beamsplit")))
    with pytest.raises(ConfigError, match="too strong for the grid"):
        mbloch.evolve_batch([(OD30, tl, config, PULSE, None), (OD30, strong, config, PULSE, None)])
    # At n_z 48 the bound is |Omega| = 5.76e5, so the same drive passes on
    # the first grid; on the second, it fails the batch before the first
    # grid steps.
    fine = SimulationConfig(t_end=1.0, n_z=48)
    with pytest.raises(ConfigError, match="too strong for the grid"):
        mbloch.evolve_batch([(OD30, strong, fine, PULSE, None), (OD30, tl, fine, None, None),
                             (OD30, strong, config, PULSE, None)])


@pytest.mark.filterwarnings("error")
def test_a_medium_the_grid_cannot_resolve_is_a_config_error_before_any_step(monkeypatch):
    # n_z 16 steps by dt = 1/192, so the bound 1e2 on G dt and |delta| dt
    # is G = |delta| = 19,200, or od = 2 G^2 / C_EFF = 6.14e7.  Just under
    # it a run steps; just over it the batch fails whichever member holds
    # the medium, with the drive well under its own bound.
    config = SimulationConfig(t_end=0.5, n_z=16)
    tl = constant_drive(5.0, 0.5)
    for medium in (MediumParams(od=6.1e7), MediumParams(od=30.0, delta=1.9e4),
                   MediumParams(od=30.0, delta=-1.9e4)):
        assert np.isfinite(evolve(medium, tl, config, pulse=PULSE).loss_accum)

    def forbidden(*args, **kwargs):
        raise AssertionError("a step map was built")

    monkeypatch.setattr(mbloch, "expm", forbidden)
    for medium, match in ((MediumParams(od=6.2e7), "coupling G = 1.93e"),
                          (MediumParams(od=30.0, delta=1.93e4), "detuning"),
                          (MediumParams(od=30.0, delta=-1.93e4), "detuning")):
        with pytest.raises(ConfigError, match=match):
            mbloch.evolve_batch([(OD30, tl, config, PULSE, None),
                                 (medium, tl, config, None, None)])


def test_a_non_finite_member_stops_the_batch():
    n_z = 16
    spin = np.full(n_z, 0.25, dtype=complex)
    spin[n_z // 2] = np.nan
    zero = np.zeros(n_z, dtype=complex)
    seeded = FieldState(make_grid(n_z), zero, spin, zero)
    tl = constant_drive(5.0, 2.0)
    config = SimulationConfig(t_end=2.0, n_z=n_z)
    with pytest.raises(PhysicsViolation, match="non-finite"):
        mbloch.evolve_batch([(OD30, tl, config, PULSE, None), (OD30, tl, config, None, seeded)])


def test_a_snapshot_is_taken_at_the_step_end_nearest_its_time():
    # n_z = 160 steps by dt = 1/1920, so a step ends exactly at t = 2.
    pulse = PulseEnvelope(fwhm=1.5, t_center=1.0)
    tl = constant_drive(13.0, 10.0)
    longer = evolve(
        OD30, tl, SimulationConfig(t_end=4.0, snapshot_times=(2.0,)), pulse=pulse
    )
    upto = evolve(OD30, tl, SimulationConfig(t_end=2.0), pulse=pulse)
    (snap,) = longer.snapshots
    fin = upto.final_state
    assert snap.t_now == pytest.approx(2.0, rel=1e-12)
    assert snap.t_now == fin.t_now
    for name in ("e_field", "sigma12", "sigma13"):
        assert np.array_equal(getattr(snap, name), getattr(fin, name))


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    m=st.lists(_UNIT, min_size=18, max_size=18),
    x=st.lists(_UNIT, min_size=12, max_size=12),
)
def test_real_block_form_applies_the_complex_map(m, x):
    # The solver holds its state as interleaved real rows (Re E, Im E, Re P,
    # Im P, Re S, Im S) and each 3x3 map in its real 6x6 block form.
    cmap = (np.array(m[:9]) + 1j * np.array(m[9:])).reshape(3, 3)
    state = (np.array(x[:6]) + 1j * np.array(x[6:])).reshape(3, 2)
    block = mbloch._real_block(cmap)
    rows = np.empty((6, 2))
    rows[0::2], rows[1::2] = state.real, state.imag
    got = block @ rows
    want = cmap @ state
    # Bounded relative to the sum of the product magnitudes, which no
    # cancellation can shrink.
    scale = np.abs(block) @ np.abs(rows)
    err = np.empty((6, 2))
    err[0::2], err[1::2] = got[0::2] - want.real, got[1::2] - want.imag
    assert np.all(np.abs(err) <= 1e-15 * scale + 1e-300)


def _norm1(x):
    return np.abs(x).sum(axis=-2).max(axis=-1)


def _random_stack(seed, k, n, max_norm):
    # Seeded complex matrices with 1-norms spread over [0.01, 1] * max_norm;
    # the first is at max_norm, which so sets the stack's scaling power.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    scale = max_norm * rng.uniform(0.01, 1.0, k) / _norm1(a)
    scale[0] = max_norm / _norm1(a[0])
    return a * scale[:, None, None]


def _expm_error(a):
    # Per matrix, the 1-norm of the difference from scipy's expm relative to
    # the 1-norm of scipy's result.
    want = expm(a)
    return _norm1(mbloch.expm(a) - want) / _norm1(want)


# Roundoff of the degree-13 Pade exponential, measured against scipy: about
# 5e-16 at 1-norms up to 1 and 4e-14 at 100, where 5 squarings run.
@pytest.mark.parametrize("max_norm, tol", [(1.0, 1e-14), (100.0, 1e-11)])
@pytest.mark.parametrize("n", [3, 6])
def test_expm_matches_scipy_on_random_stacks(max_norm, tol, n):
    a = _random_stack(1000 + n, 64, n, max_norm)
    assert np.all(_expm_error(a) <= tol)


@pytest.mark.parametrize(
    "od, delta, n_z", [(30.0, 0.0, 160), (150.0, 0.0, 240), (150.0, 0.0, 120),
                       (100.0, 20.0, 160), (30.0, 0.0, 80)],
)
def test_expm_matches_scipy_on_the_solvers_generators(od, delta, n_z):
    # The half-step generators of the gate's media and grids, written out
    # from the equations in mbloch's docstring, at the gate's drives: every
    # value from 0 (the ramps) to 27.
    medium = MediumParams(od=od, delta=delta)
    drives = np.linspace(0.0, 27.0, 109)
    gen = np.zeros((drives.size, 3, 3), dtype=complex)
    gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling
    gen[:, 1, 1] = -(1.0 - 1j * delta)
    gen[:, 1, 2] = gen[:, 2, 1] = 0.5j * drives
    gen *= 0.5 / (n_z * C_EFF)
    assert np.all(_expm_error(gen) <= 1e-14)


def test_expm_of_an_empty_stack_one_matrix_and_zero():
    assert mbloch.expm(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)
    one = _random_stack(7, 1, 3, 1.0)
    assert _expm_error(one)[0] <= 1e-14
    assert _expm_error(one[0]) <= 1e-14
    zero = mbloch.expm(np.zeros((2, 3, 3), dtype=complex))
    assert np.array_equal(zero, np.broadcast_to(np.eye(3), (2, 3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
def test_expm_of_a_non_finite_stack_is_a_physics_violation(bad):
    a = _random_stack(3, 4, 3, 1.0)
    a[2, 1, 0] = bad
    with pytest.raises(PhysicsViolation, match="non-finite"):
        mbloch.expm(a)


@pytest.mark.filterwarnings("error")
def test_expm_whose_squarings_overflow_is_a_physics_violation():
    # A finite generator far past the float range of its squarings' roundoff.
    with pytest.raises(PhysicsViolation, match="exponential overflows"):
        mbloch._local_maps(OD30, np.array([1e200]), 1e-3)


def test_an_initial_state_that_starts_late_is_a_config_error_before_any_step(monkeypatch):
    # Every run starts at t = 0; a seeded state at t_now = 5 fails before a
    # step map is built, even as the second member of a batch.
    def forbidden(*args, **kwargs):
        raise AssertionError("a step map was built")

    z = make_grid(160)
    spin = np.exp(-((z - 0.5) / 0.1) ** 2).astype(complex)
    zero = np.zeros(z.size, dtype=complex)
    start = FieldState(z, zero, spin, zero.copy(), t_now=5.0)
    config = SimulationConfig(t_end=1.0, snapshot_times=(0.5,))
    tl = constant_drive(13.0, 7.0)
    monkeypatch.setattr(mbloch, "expm", forbidden)
    with pytest.raises(ConfigError, match="t_now = 5"):
        mbloch.evolve_batch([(OD30, tl, config, PULSE, None), (OD30, tl, config, None, start)])


_RECIPROCITY_CASES = {
    "od 30, one ramped segment": (
        MediumParams(od=30.0),
        (ControlSegment(0.2, 1.4, 6.0, "beamsplit", ramp=0.3),)),
    "od 100, delta 20, two segments": (
        MediumParams(od=100.0, delta=20.0),
        (ControlSegment(0.1, 0.8, 12.0, "storage"),
         ControlSegment(1.0, 1.9, 20.0, "beamsplit", ramp=0.2))),
    "od 66, delta 10, gamma12 0.3": (
        MediumParams(od=66.0, delta=10.0, gamma12=0.3),
        (ControlSegment(0.3, 1.7, 9.0, "beamsplit", ramp=0.2),)),
}


@pytest.mark.parametrize("case", sorted(_RECIPROCITY_CASES))
def test_the_step_loop_is_its_own_transpose_run_backwards(case):
    # Every half-step map is complex symmetric (the drive is real) and the
    # advection's transpose is the advection reflected in z, so the whole
    # map U of a run to T obeys x^T U y = (R y)^T U_rev (R x), with R the
    # cell reversal and U_rev the run under the timeline mirrored about
    # T / 2 (T a whole number of steps, so the step midpoints map onto each
    # other).  No conjugation: this is the transpose, not the adjoint.  The
    # gap measured 5e-18 to 1e-16 of dz |x| |y|; a timeline mirrored one
    # step late moves it to 4e-6 to 6e-5.
    medium, segments = _RECIPROCITY_CASES[case]
    n_z = 160
    dz = 1.0 / n_z
    dt = dz / C_EFF
    t_run = 3840 * dt
    config = SimulationConfig(t_end=t_run, n_z=n_z)
    timeline = ControlTimeline(segments)

    def mirrored(shift):
        return ControlTimeline(tuple(
            ControlSegment(t_run - s.t_end + shift, t_run - s.t_start + shift,
                           s.amplitude, s.label, s.ramp)
            for s in reversed(segments)))

    def run(tl, v):
        # v holds the rows (E, P, S); the run starts from it with no pulse.
        seeded = FieldState(make_grid(n_z), v[0], v[2], v[1])
        fin = evolve(medium, tl, config, initial=seeded).final_state
        return np.array([fin.e_field, fin.sigma13, fin.sigma12])

    rng = np.random.default_rng(sorted(_RECIPROCITY_CASES).index(case))
    x, y = (rng.normal(size=(3, n_z)) + 1j * rng.normal(size=(3, n_z)) for _ in range(2))
    scale = dz * np.linalg.norm(x) * np.linalg.norm(y)
    forward = dz * np.sum(x * run(timeline, y))

    def gap(shift):
        backward = dz * np.sum(y[:, ::-1] * run(mirrored(shift), x[:, ::-1]))
        return abs(forward - backward) / scale

    assert gap(0.0) < 1e-14
    assert gap(dt) > 1e-8
