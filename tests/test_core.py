import math

import numpy as np
import pytest

from magnonbs import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    FieldState,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    SimulationConfig,
    SplitterMatrix,
    make_grid,
)


def test_grid_is_cell_centered():
    z = make_grid(1.0, 16)
    assert np.allclose(z, (np.arange(16) + 0.5) / 16.0)
    with pytest.raises(ConfigError):
        make_grid(1.0, 4)


def test_medium_derives_coupling_from_od():
    m = MediumParams(od=30.0)
    # od = 2 g^2 L / (gamma31 c_eff)
    assert m.coupling**2 * 2.0 / (m.gamma31 * m.c_eff) == pytest.approx(30.0)


def test_medium_derives_od_from_coupling():
    g = MediumParams(od=30.0).coupling
    m = MediumParams(coupling=g)
    assert m.od == pytest.approx(30.0)


def test_medium_requires_exactly_one_of_od_coupling():
    with pytest.raises(ConfigError):
        MediumParams()
    with pytest.raises(ConfigError):
        MediumParams(od=30.0, coupling=5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(od=30.0, gamma31=0.0),
        dict(od=30.0, gamma12=-0.1),
        dict(od=30.0, length=0.0),
        dict(od=-1.0),
    ],
)
def test_medium_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        MediumParams(**kwargs)



@pytest.mark.parametrize(
    "build",
    [
        lambda: MediumParams(od=math.nan),
        lambda: MediumParams(od=math.inf),
        lambda: MediumParams(od=30.0, delta=-math.inf),
        lambda: MediumParams(od=30.0, gamma12=math.nan),
        lambda: PulseEnvelope(fwhm=math.inf),
        lambda: PulseEnvelope(fwhm=math.nan),
        lambda: PulseEnvelope(t_center=math.nan),
        lambda: ControlSegment(math.nan, 1.0, 1.0, "storage"),
        lambda: ControlSegment(0.0, math.inf, 1.0, "storage"),
        lambda: ControlSegment(0.0, 1.0, complex(math.nan, 0.0), "storage"),
        lambda: SimulationConfig(t_end=math.inf),
    ],
    ids=["od-nan", "od-inf", "delta", "gamma12", "fwhm-inf", "fwhm-nan", "t_center",
         "t_start", "t_end", "amplitude", "sim-t_end"],
)
def test_constructors_reject_non_finite_values(build):
    with pytest.raises(ConfigError, match="must be finite"):
        build()

def test_pulse_norm_matches_amplitude_norm():
    pulse = PulseEnvelope(fwhm=1.5, t_center=5.0, amplitude_norm=0.7)
    t = np.linspace(0.0, 10.0, 20001)
    norm = np.trapezoid(np.abs(pulse.amplitude(t)) ** 2, t)
    assert norm == pytest.approx(0.7, rel=1e-6)


def test_pulse_fwhm_is_intensity_width():
    pulse = PulseEnvelope(fwhm=2.0, t_center=0.0)
    half = abs(pulse.amplitude(1.0)) ** 2 / abs(pulse.amplitude(0.0)) ** 2
    assert half == pytest.approx(0.5, rel=1e-9)


def test_pulse_guards():
    with pytest.raises(ConfigError):
        PulseEnvelope(fwhm=0.0)
    with pytest.raises(ConfigError):
        PulseEnvelope(amplitude_norm=1.5)


def test_segment_drive_is_continuous_across_edges():
    seg = ControlSegment(1.0, 3.0, 8.0, "storage", ramp=0.2)
    t = np.linspace(0.5, 3.5, 6001)
    v = np.abs(seg.value(t))
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
    assert tl.by_label("readout")[0].t_start == 2.0
    assert tl.t_last == 3.0


def test_segment_label_must_be_known():
    with pytest.raises(ConfigError):
        ControlSegment(0.0, 1.0, 1.0, "warmup")


def _state(n=16, e_scale=0.5):
    z = make_grid(1.0, n)
    e = np.full(n, e_scale, dtype=complex)
    s = np.zeros(n, dtype=complex)
    dz = 1.0 / n
    norm = dz * np.sum(np.abs(e) ** 2)
    return FieldState(
        z, e, s, np.zeros(n, dtype=complex), 0.0, 0.0,
        initial_norm=norm,
    )


def test_field_state_bookkeeping_closes_on_construction():
    st = _state()
    assert abs(st.bookkeeping_residual()) < 1e-12
    assert st.photon_norm >= 0.0
    assert st.magnon_norm == 0.0


def test_splitter_matrix_layout_and_port_sums():
    b = SplitterMatrix(t1=0.5, r1=0.1j, t2=0.4, r2=0.2)
    m = b.matrix
    assert m[0, 0] == 0.5 and m[0, 1] == 0.2
    assert m[1, 0] == 0.1j and m[1, 1] == 0.4
    assert b.port_sums[0] == pytest.approx(0.26)
    assert b.port_sums[1] == pytest.approx(0.20)


def test_splitter_matrix_rejects_gain():
    with pytest.raises(PhysicsViolation):
        SplitterMatrix(t1=1.0, r1=0.2, t2=1.0, r2=0.0)
    # Each port passive but the matrix still amplifies one input vector.
    r = math.sqrt(0.5)
    with pytest.raises(PhysicsViolation):
        SplitterMatrix(t1=r, r1=r, t2=r, r2=r)
