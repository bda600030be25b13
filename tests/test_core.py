import dataclasses
import math
import pickle

import numpy as np
import pytest

from magnonbs import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    ExtractionResult,
    FieldState,
    MediumParams,
    ModeNetwork,
    PhysicsViolation,
    PulseEnvelope,
    SimulationConfig,
    SplitterMatrix,
    evolve,
    make_grid,
    three_photon_input,
)
from magnonbs.core import C_EFF
from magnonbs.scenarios import Fig2Curve, Fig2Grid
from magnonbs.splitter import Coincidence


def test_grid_is_cell_centered():
    z = make_grid(16)
    assert np.allclose(z, (np.arange(16) + 0.5) / 16.0)
    with pytest.raises(ConfigError):
        make_grid(4)


def test_medium_derives_coupling_from_od():
    m = MediumParams(od=30.0)
    assert m.od == pytest.approx(2.0 * m.coupling**2 / C_EFF)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(od=30.0, gamma12=-0.1),
        dict(od=30.0, gamma12=-1e-12),
        dict(od=-1e-12),
        dict(od=-1.0),
        dict(od=1e308),  # 4 G^2 = 2 od C_EFF overflows
    ],
)
def test_medium_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        MediumParams(**kwargs)


# A case with a message must raise exactly that message.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MediumParams(od=math.nan), None),
        (lambda: MediumParams(od=math.inf), None),
        (lambda: MediumParams(od=30.0, delta=-math.inf),
         "MediumParams.delta must be finite, got -inf"),
        (lambda: MediumParams(od=30.0, gamma12=math.nan),
         "MediumParams.gamma12 must be finite, got nan"),
        (lambda: MediumParams(od=30.0, delta=math.inf), "MediumParams.delta must be finite, got inf"),
        (lambda: MediumParams(od=30.0, delta=np.float64(math.inf)),
         "MediumParams.delta must be finite, got inf"),
        (lambda: PulseEnvelope(fwhm=math.inf), None),
        (lambda: PulseEnvelope(fwhm=math.nan), None),
        (lambda: PulseEnvelope(t_center=math.nan), None),
        (lambda: ControlSegment(math.nan, 1.0, 1.0, "storage"), None),
        (lambda: ControlSegment(0.0, math.inf, 1.0, "storage"), None),
        (lambda: ControlSegment(0.0, 1.0, math.nan, "storage"), None),
        # NaN fails both `ramp < 0` and `ramp > 0`; only the finiteness check sees it.
        (lambda: ControlSegment(0.0, 1.0, 5.0, "beamsplit", ramp=math.nan), None),
        (lambda: ControlSegment(0.0, 1.0, 5.0, "beamsplit", ramp=math.inf), None),
        (lambda: SimulationConfig(t_end=math.inf), None),
        (lambda: SimulationConfig(t_end=2.0, snapshot_times=(1.0, math.nan)), None),
        (lambda: SplitterMatrix(t1=math.inf, r1=0.0, t2=0.5, r2=0.5),
         "SplitterMatrix.t1 must be finite, got (inf+0j)"),
        (lambda: SplitterMatrix(t1=0.5, r1=complex(0.0, math.nan), t2=0.5, r2=0.5),
         "SplitterMatrix.r1 must be finite, got nanj"),
        (lambda: SplitterMatrix(t1=0.5, r1=0.0, t2=0.5, r2=complex(0.1, -math.inf)),
         "SplitterMatrix.r2 must be finite, got (0.1-infj)"),
        (lambda: SplitterMatrix(t1=0.5, r1=complex(math.nan, 0.0), t2=0.5, r2=0.5),
         "SplitterMatrix.r1 must be finite, got (nan+0j)"),
        (lambda: ModeNetwork(np.array([[0.5, math.nan], [0.0, 0.5]])), None),
    ],
    ids=["od-nan", "od-inf", "delta", "gamma12", "delta-inf", "delta-np-inf", "fwhm-inf",
         "fwhm-nan", "t_center", "t_start", "t_end", "amplitude", "ramp-nan", "ramp-inf",
         "sim-t_end", "snapshot", "splitter-inf", "splitter-nan", "splitter-inf-imag",
         "splitter-nan-real", "transfer"],
)
def test_constructors_reject_non_finite_values(build, message):
    with pytest.raises(ConfigError, match="must be finite") as raised:
        build()
    assert message is None or str(raised.value) == message


def test_pulse_norm_matches_amplitude_norm():
    pulse = PulseEnvelope(fwhm=1.5, t_center=5.0, amplitude_norm=0.7)
    t = np.linspace(0.0, 10.0, 20001)
    norm = np.trapezoid(np.abs(pulse.amplitude(t)) ** 2, t)
    assert norm == pytest.approx(0.7, rel=1e-6)


def test_pulse_fwhm_is_intensity_width():
    pulse = PulseEnvelope(fwhm=2.0, t_center=0.0)
    half = abs(pulse.amplitude(1.0)) ** 2 / abs(pulse.amplitude(0.0)) ** 2
    assert half == pytest.approx(0.5, rel=1e-9)


def test_a_pulse_amplitude_is_real():
    # Complex in type, real in value: the solver steps a resonant run in its
    # real rows alone, and injects the real part of each sample.
    pulse = PulseEnvelope(fwhm=0.7, t_center=1.3, amplitude_norm=0.4)
    amps = pulse.amplitude(np.linspace(-5.0, 10.0, 1001))
    assert amps.dtype == complex
    assert np.all(amps.imag == 0.0)
    assert pulse.amplitude(2.0).imag == 0.0


def test_pulse_guards():
    with pytest.raises(ConfigError):
        PulseEnvelope(fwhm=0.0)
    with pytest.raises(ConfigError):
        PulseEnvelope(amplitude_norm=1.5)


def test_segment_drive_is_continuous_across_edges():
    tl = ControlTimeline((ControlSegment(1.0, 3.0, 8.0, "storage", ramp=0.2),))
    t = np.linspace(0.5, 3.5, 6001)
    v = np.abs(tl.rabi(t))
    assert np.max(np.abs(np.diff(v))) < 8.0 * 0.02
    assert v[0] == 0.0 and v[-1] == 0.0


def test_timeline_rejects_overlap_and_reads_gaps_as_zero():
    with pytest.raises(ConfigError):
        ControlTimeline(
            (
                ControlSegment(0.0, 2.0, 1.0, "storage"),
                ControlSegment(1.5, 3.0, 1.0, "readout"),
            )
        )
    tl = ControlTimeline(
        (
            ControlSegment(0.0, 1.0, 2.0, "storage"),
            ControlSegment(2.0, 3.0, 5.0, "readout"),
        )
    )
    assert tl.rabi(1.5) == 0.0


def test_segment_label_must_be_known():
    with pytest.raises(ConfigError):
        ControlSegment(0.0, 1.0, 1.0, "warmup")


@pytest.mark.parametrize("amplitude", [13.0 + 2.0j, complex(5.0, 0.0), np.complex128(5.0)],
                         ids=str)
def test_a_complex_drive_is_a_config_error(amplitude):
    # A constant drive phase is a gauge of the spin wave, not an input.
    with pytest.raises(ConfigError, match="must be real"):
        ControlSegment(0.0, 1.0, amplitude, "beamsplit")


def test_timeline_drive_is_real():
    tl = ControlTimeline((ControlSegment(0.0, 1.0, 8.0, "storage", ramp=0.2),))
    assert tl.rabi(np.linspace(0.0, 1.0, 11)).dtype == np.float64
    assert type(tl.rabi(0.5)) is float


def test_a_field_state_is_its_amplitudes():
    # Five fields, t_now 0 unless given; the norms are dz sum |.|^2 of the
    # amplitudes, held read-only.
    z = make_grid(16)
    half = np.full(16, 0.5, dtype=complex)
    st = FieldState(z, half, 2.0 * half, np.zeros(16, dtype=complex))
    assert [f.name for f in dataclasses.fields(st)] == [
        "z_grid", "e_field", "sigma12", "sigma13", "t_now"]
    assert st.t_now == 0.0
    assert (st.photon_norm, st.magnon_norm, st.excited_norm) == (0.25, 1.0, 0.0)
    for name in ("z_grid", "e_field", "sigma12", "sigma13"):
        assert not getattr(st, name).flags.writeable, name


def test_splitter_matrix_layout_and_column_norms():
    b = SplitterMatrix(t1=0.5, r1=0.1j, t2=0.4, r2=0.2)
    m = b.matrix
    assert m[0, 0] == 0.5 and m[0, 1] == 0.2
    assert m[1, 0] == 0.1j and m[1, 1] == 0.4
    # A column's squared norm is its input port's survival probability.
    survival = np.linalg.norm(m, axis=0) ** 2
    assert survival[0] == pytest.approx(0.26)
    assert survival[1] == pytest.approx(0.20)


def test_splitter_matrix_rejects_gain():
    with pytest.raises(PhysicsViolation):
        SplitterMatrix(t1=1.0, r1=0.2, t2=1.0, r2=0.0)
    # Each port passive but the matrix still amplifies one input vector.
    r = math.sqrt(0.5)
    with pytest.raises(PhysicsViolation):
        SplitterMatrix(t1=r, r1=r, t2=r, r2=r)
    # Both constructors hold one tolerance, 1e-10 on the largest singular
    # value: a gain of 5e-10 fails and one of 5e-11 is roundoff.
    for build in (
        lambda t1: SplitterMatrix(t1=t1, r1=0.0, t2=0.5, r2=0.0),
        lambda t1: ModeNetwork(np.diag([t1, 0.5])),
    ):
        with pytest.raises(PhysicsViolation, match="has gain"):
            build(1.0 + 5e-10)
        build(1.0 + 5e-11)


def _short_run():
    timeline = ControlTimeline((ControlSegment(0.0, 0.2, 5.0, "beamsplit"),))
    config = SimulationConfig(t_end=0.2, n_z=16, snapshot_times=(0.1,))
    return evolve(MediumParams(od=30.0), timeline, config,
                  pulse=PulseEnvelope(fwhm=0.1, t_center=0.05))


def _fig2_grid():
    return Fig2Grid(
        n_z=16, t_probe=1.0, efficiency=np.full(3, 0.5), mode_overlap=np.full(3, 0.8),
        balance=np.ones(3), spin_abs=np.ones((3, 16)), transmission=0.5, release=1.0,
        loss_gaps={5.0: 2e-5, "probe": -1e-5, "release": 3e-5},
    )


_ARRAY_VALUES = {
    "FieldState": lambda: FieldState(make_grid(16), np.full(16, 0.1j), np.full(16, 0.2),
                                     np.zeros(16), 0.5),
    "FockInput": lambda: three_photon_input(0.3, 0.8),
    "ModeNetwork": lambda: ModeNetwork(np.array([[0.6, 0.3j], [0.2, 0.5]])),
    "Fig2Grid": _fig2_grid,
    "Fig2Curve": lambda: Fig2Curve((1.0, 2.0, 3.0), _fig2_grid(), _fig2_grid()),
    "Trajectory": _short_run,
    "ExtractionResult": lambda: ExtractionResult(
        matrix=SplitterMatrix(t1=0.5, r1=0.5j, t2=0.5, r2=0.5j),
        grams=np.ones((2, 2, 2), dtype=complex), run_magnon=_short_run(),
        run_photon=_short_run(),
    ),
    "Coincidence": lambda: Coincidence(np.ones((3, 2, 2), dtype=complex), 0.5, 1.0, 0.5),
}


def _arrays(value, path=""):
    """The arrays in `value`'s fields and in those of the dataclasses in
    them, by path."""
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if isinstance(item, np.ndarray):
            yield path + field.name, item
        elif dataclasses.is_dataclass(item):
            yield from _arrays(item, f"{path}{field.name}.")


@pytest.mark.parametrize("name", sorted(_ARRAY_VALUES))
def test_array_values_keep_read_only_arrays_through_pickle(name):
    # Unpickling goes through __init__, so the copy freezes its arrays as
    # the original did, those its __post_init__ derives included.  A
    # storage-drive curve holds its arrays in its two grids.
    value = _ARRAY_VALUES[name]()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
    arrays = [(path, arr) for v in (value, copy) for path, arr in _arrays(v)]
    assert arrays
    for path, arr in arrays:
        assert not arr.flags.writeable, path
