import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced
from magnonbs import (
    ConfigError,
    MediumParams,
    PulseEnvelope,
    SplitterMatrix,
    extract_matrix,
    fold_phase,
    phi_rt_analytic,
    phi_rt_of_matrix,
    tau_from_fwhm,
)
from magnonbs import mbloch, scenarios, splitter
from magnonbs.core import C_EFF
from magnonbs.scenarios import store
from magnonbs.splitter import splitter_from_outputs


def test_tau_from_fwhm_value_and_guard():
    assert tau_from_fwhm(2.0) == pytest.approx(1.0 / math.sqrt(math.log(2.0)))
    for fwhm in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            tau_from_fwhm(fwhm)


def test_fold_phase_measures_distance_from_zero():
    assert fold_phase(0.3) == pytest.approx(0.3)
    assert fold_phase(2.0 * math.pi - 0.3) == pytest.approx(0.3)
    assert fold_phase(-0.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert fold_phase(7.0 * math.pi) == pytest.approx(math.pi)
    # An array folds element by element, as each scalar does.
    phases = np.array([0.3, 2.0 * math.pi - 0.3, -0.5 * math.pi, 7.0 * math.pi,
                       -4.0 * math.pi, 0.0])
    assert np.array_equal(fold_phase(phases), [fold_phase(p) for p in phases])


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


_EMPTY_MEMO = (object(), object(), object(), None)


def _outcome(*args):
    try:
        return phi_rt_analytic(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def test_phi_rt_analytic_guards(monkeypatch):
    tau = tau_from_fwhm(1.8847)
    nan, inf = math.nan, math.inf
    for case in [
        (10.0, 0.0, 0.0, tau),
        (0.0, 0.0, 30.0, tau),
        # Non-finite input raises rather than returning NaN (with warnings).
        (nan, 0.0, 30.0, tau),
        (10.0, 0.0, 30.0, nan),
        (10.0, nan, 30.0, tau),
        (10.0, 0.0, nan, tau),
        (10.0, 0.0, inf, tau),
        (10.0, inf, 30.0, tau),
        (10.0, -inf, 30.0, tau),
        (inf, 0.0, 30.0, tau),
        (10.0, 0.0, 30.0, inf),
        # The pulse area overflows to inf; the same drive squared with
        # `**` would raise OverflowError, and a numpy one would warn.
        (1e200, 0.0, 30.0, tau),
        (np.float64(1e200), 0.0, 30.0, tau),
        # A finite od whose |x - od (1 - xi)| overflows: abs() of a Python
        # complex would raise OverflowError.
        (4.0, 2.0, 1.7e308, 1.0),
        # (1 - xi)^2 underflows: the phase would read 0 where its limit is pi.
        (30.0, 1e300, 30.0, tau),
    ]:
        monkeypatch.setattr(splitter, "_last_drive", _EMPTY_MEMO)
        want = _outcome(*case)
        assert want[0] is ConfigError, case
        # The same type and message with the memo holding another drive,
        # and with it holding this case's own drive objects where that
        # drive is valid on its own.
        rabi, _, od, t = case
        for drive in ((12.0, 5.0, 40.0, 1.5), (rabi, 1.0, od, t)):
            _outcome(*drive)
            assert _outcome(*case) == want, (case, drive)


def test_phi_rt_analytic_memo_never_serves_a_stale_drive(monkeypatch):
    tau = tau_from_fwhm(1.8847)
    # A, and drives that each differ from A in one argument.
    drives = [(34.25, 66.0, tau), (34.25, 66.0, 1.5 * tau), (20.0, 66.0, tau),
              (34.25, 30.0, tau)]
    detunings = np.linspace(-20.0, 20.0, 7)

    def cold(rabi, d, od, t):
        monkeypatch.setattr(splitter, "_last_drive", _EMPTY_MEMO)
        return phi_rt_analytic(rabi, d, od, t)

    want = {k: [cold(r, d, od, t) for d in detunings]
            for k, (r, od, t) in enumerate(drives)}
    # A, B, A, B, ... each for a whole sweep and then call by call.
    for k in (0, 1, 0, 2, 0, 3, 0, 1, 2, 3):
        r, od, t = drives[k]
        assert [phi_rt_analytic(r, d, od, t) for d in detunings] == want[k]
        assert splitter._last_drive[:3] == drives[k]
    for i, d in enumerate(detunings):
        for k in (0, 1, 0, 2, 3, 0):
            r, od, t = drives[k]
            assert phi_rt_analytic(r, d, od, t) == want[k][i]
    # Equal arguments of other types, with the memo holding the float drive,
    # give what the cold path gives for them.
    for rabi, d, od, t in [
        (34, 7.5, 66.0, tau), (34.0, 7.5, 66, tau), (34.0, 7.5, 66.0, 2),
        (np.float64(34.25), 7.5, 66.0, tau), (34.25, 7.5, np.float64(66.0), tau),
        (34.25, 7.5, 66.0, np.float64(tau)), (True, 7.5, 66.0, 4.0 * tau),
        (1, 7.5, 66.0, 4.0 * tau), (34.25 + 0j, 7.5, 66.0, tau), (-34.25, 7.5, 66.0, tau),
        (20.0 + 27.0j, 7.5, 66.0, tau),
    ]:
        want_value = cold(rabi, d, od, t)
        plain = (float(abs(rabi)), float(od), float(t))
        assert cold(plain[0], d, *plain[1:]) == want_value
        phi_rt_analytic(plain[0], d, *plain[1:])
        assert phi_rt_analytic(rabi, d, od, t) == want_value
    # A 0-d array changed in place between two calls gives the new drive.
    for k in range(3):
        drive = [34.25, 66.0, tau]
        drive[k] = np.array(drive[k])
        phi_rt_analytic(drive[0], 7.5, drive[1], drive[2])
        drive[k][...] = 1.5 * drive[k]
        r, od, t = (float(v) for v in drive)
        assert phi_rt_analytic(drive[0], 7.5, drive[1], drive[2]) == cold(r, 7.5, od, t)


def test_phi_rt_estimates_stop_where_the_square_underflows(monkeypatch):
    # With |delta| >> x, (1 - xi)^2 = -(x / delta)^2 and den = x, so the
    # phase tends to pi; the bound keeps (x / delta)^2 a normal float.
    tiny = np.finfo(float).tiny
    for rabi, od, tau in ((34.25, 30.0, 1.1), (2.0, 100.0, 1.0), (1e-3, 1e-3, 1.0),
                          (1e50, 5.0, 1.0)):
        x = rabi * rabi * tau / 4.0
        bound = x / math.sqrt(tiny)
        for sign in (1.0, -1.0):
            inside = sign * bound * (1.0 - 1e-15)
            monkeypatch.setattr(splitter, "_last_drive", _EMPTY_MEMO)
            # Cold, then with the memo holding this drive.
            assert phi_rt_analytic(rabi, inside, od, tau) == pytest.approx(math.pi, abs=1e-12)
            assert phi_rt_analytic(rabi, inside, od, tau) == pytest.approx(math.pi, abs=1e-12)
            assert splitter.phi_rt_sweep(rabi, [inside / 2.0, inside], od, tau)[1] == pytest.approx(
                math.pi, abs=1e-12)
            outside = sign * bound * (1.0 + 1e-15)
            for memo in (_EMPTY_MEMO, splitter._last_drive):
                monkeypatch.setattr(splitter, "_last_drive", memo)
                with pytest.raises(ConfigError, match="detuning too large"):
                    phi_rt_analytic(rabi, outside, od, tau)
            with pytest.raises(ConfigError, match="detuning too large"):
                splitter.phi_rt_sweep(rabi, [outside / 2.0, outside], od, tau)


def test_phi_rt_sweep_is_the_scalar_estimate_over_an_array():
    tau = tau_from_fwhm(1.8847)
    detunings = np.linspace(-25.0, 25.0, 201)
    for rabi, od in ((34.25, 100.0), (12.0, 30.0)):
        phis = splitter.phi_rt_sweep(rabi, detunings, od, tau)
        want = [phi_rt_analytic(rabi, d, od, tau) for d in detunings]
        assert np.allclose(phis, want, rtol=0, atol=1e-13)
    # One bad entry fails the whole sweep, as it would its scalar call.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite detunings"):
            splitter.phi_rt_sweep(34.25, np.append(detunings, bad), 100.0, tau)
    # A numpy drive whose pulse area overflows raises, with no overflow
    # warning on the way, as the scalar estimate does.
    with pytest.raises(ConfigError):
        splitter.phi_rt_sweep(np.float64(1e200), detunings, 30.0, 1.0)


def _whole_array_sweep(rabi, detunings, od, tau):
    # The sweep over the whole array at once, each check on every entry
    # before the next: its phases, or the message of the ConfigError.
    try:
        d = np.asarray(detunings, dtype=float)
        if not (0 < od < math.inf and np.isfinite(d).all()):
            raise ConfigError("phase estimate needs a finite od > 0 and finite detunings")
        x, od, floor, max_detuning = splitter._drive(rabi, od, tau)
        if (np.abs(d) > max_detuning).any():
            raise ConfigError(splitter._TOO_DETUNED)
        xi = np.exp(-x / (1.0 - 1j * d))
        m = 1.0 - xi
        den = x - od * m
        if (np.abs(den) < floor).any():
            raise ConfigError(splitter._DEGENERATE)
        if (np.abs(xi) < 1e-300).any():
            raise ConfigError(splitter._UNDERFLOW)
        return np.angle(m * m / (xi * den)) % (2.0 * math.pi)
    except ConfigError as exc:
        return str(exc)


def _sweep_outcome(rabi, detunings, od, tau):
    try:
        return splitter.phi_rt_sweep(rabi, detunings, od, tau)
    except ConfigError as exc:
        return str(exc)


def test_a_phase_sweep_in_chunks_is_the_sweep_over_the_whole_array():
    # Three whole chunks and part of a fourth.
    chunk = splitter._SWEEP_CHUNK
    n = 3 * chunk + 1_234
    tau = tau_from_fwhm(1.8847)
    detunings = np.linspace(-25.0, 25.0, n)
    for rabi, od in ((34.25, 100.0), (12.0, 30.0)):
        phis = splitter.phi_rt_sweep(rabi, detunings, od, tau)
        assert np.array_equal(phis, _whole_array_sweep(rabi, detunings, od, tau))
        want = [phi_rt_analytic(rabi, d, od, tau) for d in detunings.tolist()]
        assert np.allclose(phis, want, rtol=0, atol=1e-13)
    # A 2-d array keeps its shape.
    grid = detunings[: 3 * chunk].reshape(3, chunk)
    assert np.array_equal(splitter.phi_rt_sweep(34.25, grid, 100.0, tau),
                          _whole_array_sweep(34.25, grid, 100.0, tau))

    # A drive of pulse area x = 2500 whose den vanishes at one detuning,
    # where x d / (1 + d^2) = 16 pi makes xi real: od = x / (1 - xi) there.
    # Below |d| = 1.6, xi underflows; at |d| in [20, 40] neither happens.
    rabi, tau, x = 100.0, 1.0, 2500.0
    c = 16.0 * math.pi
    degenerate = (x + math.sqrt(x * x - 4.0 * c * c)) / (2.0 * c)
    od = x / (1.0 - math.exp(-x / (1.0 + degenerate**2)))
    detunings = np.linspace(20.0, 40.0, n)
    assert isinstance(_whole_array_sweep(rabi, detunings, od, tau), np.ndarray)
    for where in (0, chunk + 17, 3 * chunk - 1, n - 1):
        for bad in (math.nan, math.inf, -math.inf, 1e300, degenerate, 0.5):
            sweep = detunings.copy()
            sweep[where] = bad
            want = _whole_array_sweep(rabi, sweep, od, tau)
            assert isinstance(want, str)
            assert _sweep_outcome(rabi, sweep, od, tau) == want, (where, bad)
    # An underflow in a chunk before a degenerate one, and in the same
    # chunk: the degenerate den is raised, as the whole array's check is
    # first.
    for first, second in ((0, 2 * chunk + 5), (n - 2, n - 1), (chunk, chunk + 1)):
        sweep = detunings.copy()
        sweep[first], sweep[second] = 0.5, degenerate
        assert _sweep_outcome(rabi, sweep, od, tau) == splitter._DEGENERATE
        sweep[first], sweep[second] = degenerate, 0.5
        assert _sweep_outcome(rabi, sweep, od, tau) == splitter._DEGENERATE


def test_a_phase_sweep_holds_one_chunk_besides_its_output():
    # 32 times the detunings take no more memory beyond the output array,
    # one float per detuning as the detunings are; the whole array at once
    # would take about 64 B per detuning.
    tau = tau_from_fwhm(1.8847)

    def held(n):
        detunings = np.linspace(-20.0, 20.0, n)
        return traced(splitter.phi_rt_sweep, 34.25, detunings, 100.0, tau)[1] - detunings.nbytes

    held(4_096)
    assert held(128_004) - held(4_096) < 4_096


def _two_angle_phase(rabi, detunings, od, tau):
    # The estimate written out as two angles on complex128, the form the
    # one-angle closed form replaced: arg(1 - 1/xi) + arg(od (xi - 1) / den).
    x = rabi * rabi * tau / 4.0
    xi = np.exp(-x / (1.0 - 1j * np.asarray(detunings, dtype=np.complex128)))
    den = x - od * (1.0 - xi)
    return np.mod(np.angle(1.0 - 1.0 / xi) + np.angle(od * (xi - 1.0) / den), 2 * math.pi)


def test_phi_rt_estimates_match_the_two_angle_reference():
    tau = tau_from_fwhm(scenarios.PHASE_FWHM)
    rabi = scenarios.PHASE_CAL_RABI
    # Criterion 4's three operating points.
    for od, delta in scenarios.PHASE_POINTS:
        want = _two_angle_phase(rabi, [delta], od, tau)
        assert fold_phase(phi_rt_analytic(rabi, delta, od, tau) - want) <= 1e-13
        assert fold_phase(splitter.phi_rt_sweep(rabi, [delta], od, tau) - want) <= 1e-13
    # A seeded box holding the oracle workload's (drive 20-36, od 30-100,
    # detuning 0-20), each draw one sweep and its scalar calls.
    rng = np.random.default_rng(28)
    for _ in range(40):
        rabi, od = float(rng.uniform(10.0, 40.0)), float(rng.uniform(10.0, 120.0))
        tau = tau_from_fwhm(float(rng.uniform(1.0, 3.0)))
        detunings = rng.uniform(-25.0, 25.0, 200)
        want = _two_angle_phase(rabi, detunings, od, tau)
        got = splitter.phi_rt_sweep(rabi, detunings, od, tau)
        assert fold_phase(got - want).max() <= 1e-13
        got = [phi_rt_analytic(rabi, d, od, tau) for d in detunings.tolist()]
        assert fold_phase(np.subtract(got, want)).max() <= 1e-13


@pytest.mark.filterwarnings("error")
def test_phi_rt_analytic_takes_numpy_scalars_as_python_floats():
    # The oracle benchmark passes np.float64 detunings; any argument as a
    # numpy scalar must give the same Python float, with no warning.
    args = (34.25, 7.5, 66.0, tau_from_fwhm(1.8847))
    want = phi_rt_analytic(*args)
    assert type(want) is float
    for k in range(len(args)):
        numpy_args = [np.float64(a) if i == k else a for i, a in enumerate(args)]
        got = phi_rt_analytic(*numpy_args)
        assert type(got) is float and got == want
    got = phi_rt_analytic(*map(np.float64, args))
    assert type(got) is float and got == want


def _port_grams(magnon, photon, dz, dt):
    # Port Gram matrices, magnon port first, of the runs' sampled outputs
    # (one row per run).
    return np.stack([dz * (magnon.conj() @ magnon.T),
                     dt * (photon.conj() @ photon.T)])


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
    grams = _port_grams(
        np.stack([b.t1 * ra * m, b.r2 * rb * m]),
        np.stack([b.r1 * ra * g, b.t2 * rb * g]),
        dz,
        dt,
    )
    return splitter_from_outputs(grams, (input_a, input_b))


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
    with pytest.raises(ConfigError, match="inputs too small"):
        _synthetic_projection(b, input_a=1e-6)
    rng = np.random.default_rng(3)
    light = rng.normal(size=(2, 101)) + 1j * rng.normal(size=(2, 101))
    spin = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    zeros_t = np.zeros((2, 101), dtype=complex)
    zeros_z = np.zeros((2, 64), dtype=complex)
    # Each port's guard on its own: the other port carries weight.
    for magnon, photon, port in ((spin, zeros_t, "photon"), (zeros_z, light, "magnon")):
        grams = _port_grams(magnon, photon, 1.0 / 64, 0.1)
        with pytest.raises(ConfigError, match=f"{port} output mode has vanishing norm"):
            splitter_from_outputs(grams, (1.0, 1.0))
    # Two runs that cancel leave a zero summed mode, though each has norm.
    opposite = np.stack([light[0], -light[0]])
    grams = _port_grams(spin, opposite, 1.0 / 64, 0.1)
    with pytest.raises(ConfigError, match="photon output mode has vanishing norm"):
        splitter_from_outputs(grams, (1.0, 1.0))


OD30 = MediumParams(od=30.0)
PROBE = PulseEnvelope(fwhm=1.5, t_center=0.6)


def test_extract_matrix_identity_without_drive_or_atoms():
    # Zero mixing drive freezes the spin wave and an empty cell passes
    # the probe untouched, so the measured matrix is the identity.
    empty = MediumParams(od=0.0)
    stored = store([(OD30, 5.0)], 96)[0]
    result = extract_matrix(empty, 0.0, 2.0, PROBE, stored.state, t_end=5.0)
    b = result.matrix
    assert abs(b.t1) == pytest.approx(1.0, abs=1e-3)
    assert abs(b.r1) == pytest.approx(0.0, abs=1e-3)
    assert abs(b.t2) == pytest.approx(1.0, abs=1e-3)
    assert abs(b.r2) == pytest.approx(0.0, abs=1e-3)
    # The photon run leaves no spin wave and the magnon run emits nothing:
    # the cross term's factors are exactly 0, and the overlap 0 by its
    # guard, not 0 / 0.  P(1,1) per unit input measures 0.99827, the
    # probe's tail past the photon window lost.
    assert result.overlap == 0.0 and result.g2 == 1.0
    assert result.p11 == pytest.approx(1.0, abs=2e-3)


def test_extract_matrix_mixes_ports_in_a_driven_cell():
    stored = store([(OD30, 3.0)], 96)[0]
    result = extract_matrix(OD30, 13.0, 2.0, PROBE, stored.state, t_end=5.5)
    b = result.matrix
    # All four channels carry weight and the matrix stays passive.
    for amp in (b.t1, b.r1, b.t2, b.r2):
        assert abs(amp) > 0.05
    assert (np.linalg.norm(b.matrix, axis=0) ** 2).max() <= 1.0 + 1e-6
    assert 0.0 <= result.overlap <= 1.0
    assert not result.grams.flags.writeable


def test_grams_give_the_vector_projection_of_a_driven_cell():
    # The matrix and overlap read off the port Grams equal the projection
    # of the sampled outputs onto the summed modes, written out here.
    stored = store([(OD30, 3.0)], 96)[0]
    result = extract_matrix(OD30, 13.0, 2.0, PROBE, stored.state, t_end=5.5)
    run_a, run_b = result.run_magnon, result.run_photon
    # The photon window of a stage cut at 2.0.
    inside = (run_a.times >= 0.0) & (run_a.times <= 2.0 + 1.0 / C_EFF + 0.5)
    ea, eb = run_a.emitted[inside], run_b.emitted[inside]
    sa, sb = run_a.final_state.sigma12, run_b.final_state.sigma12
    dt, dz = run_a.dt, run_a.final_state.dz

    u, m = ea + eb, sa + sb
    u_hat = u / math.sqrt(dt * np.vdot(u, u).real)
    m_hat = m / math.sqrt(dz * np.vdot(m, m).real)
    ra = 1.0 / math.sqrt(run_a.initial_norm)
    rb = 1.0 / math.sqrt(run_b.injected_norm)
    want = np.array([
        [dz * np.vdot(m_hat, sa) * ra, dz * np.vdot(m_hat, sb) * rb],
        [dt * np.vdot(u_hat, ea) * ra, dt * np.vdot(u_hat, eb) * rb],
    ])
    assert np.abs(result.matrix.matrix - want).max() < 1e-13

    c_ph = abs(np.vdot(ea, eb)) / (np.linalg.norm(ea) * np.linalg.norm(eb))
    c_mg = abs(np.vdot(sa, sb)) / (np.linalg.norm(sa) * np.linalg.norm(sb))
    assert abs(result.overlap - min(1.0, c_ph * c_mg)) < 1e-13
    assert 0.0 < c_ph * c_mg < 1.0


def test_extract_matrix_rejects_a_stored_wave_that_starts_late(monkeypatch):
    stored = store([(OD30, 5.0)], 96)[0].state
    late = replace(stored, t_now=0.5)

    def forbidden(*args, **kwargs):
        raise AssertionError("solver stepped before the start time was checked")

    # Every run starts at t = 0, so the solver rejects the stored wave
    # before either run builds a step map.
    monkeypatch.setattr(mbloch, "expm", forbidden)
    with pytest.raises(ConfigError, match="t_now"):
        extract_matrix(OD30, 13.0, 2.0, PROBE, late, t_end=5.0)


def _mixing_grams(od, delta, gamma12=0.0):
    # A mixing stage at n_z 48 from a wave stored at zero detuning, as
    # `MixingScenario` stores it.
    stored = store([(MediumParams(od=od, gamma12=gamma12), 3.0)], 48)[0]
    medium = MediumParams(od=od, delta=delta, gamma12=gamma12)
    return extract_matrix(medium, 13.0, 2.0, PROBE, stored.state, t_end=5.5).grams


def test_grams_on_resonance_are_exactly_real():
    # At delta = 0 the equations are real in the gauge P -> iP, and the
    # probe and the stored wave are real, so every Gram entry is real.
    assert np.abs(_mixing_grams(10.0, 0.0).imag).max() == 0.0
    # The check can fail: a detuning of 1e-6 leaves imaginary parts.
    assert np.abs(_mixing_grams(10.0, 1e-6).imag).max() > 0.0


@pytest.mark.parametrize("od, delta, gamma12", [(10.0, 5.0, 0.0), (30.0, -20.0, 0.3)])
def test_flipping_the_detuning_conjugates_the_grams_exactly(od, delta, gamma12):
    # delta -> -delta is complex conjugation of the real-gauge equations.
    grams = _mixing_grams(od, delta, gamma12)
    assert np.abs(grams.imag).max() > 0.0
    assert np.array_equal(_mixing_grams(od, -delta, gamma12), grams.conj())
    # The check can fail: the grams 1e-6 away from -delta differ.
    assert not np.array_equal(_mixing_grams(od, -delta + 1e-6, gamma12), grams.conj())
