import math

import numpy as np
import pytest

from magnonbs import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    FieldState,
    MediumParams,
    ModeNetwork,
    PhysicsViolation,
    PulseEnvelope,
    SimulationConfig,
    SplitterMatrix,
    make_grid,
)
from magnonbs.core import C_EFF


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
        lambda: ControlSegment(0.0, 1.0, math.nan, "storage"),
        # NaN fails both `ramp < 0` and `ramp > 0`; only the finiteness check sees it.
        lambda: ControlSegment(0.0, 1.0, 5.0, "beamsplit", ramp=math.nan),
        lambda: ControlSegment(0.0, 1.0, 5.0, "beamsplit", ramp=math.inf),
        lambda: SimulationConfig(t_end=math.inf),
        lambda: SimulationConfig(t_end=2.0, snapshot_times=(1.0, math.nan)),
        lambda: SplitterMatrix(t1=math.inf, r1=0.0, t2=0.5, r2=0.5),
        lambda: SplitterMatrix(t1=0.5, r1=complex(0.0, math.nan), t2=0.5, r2=0.5),
        lambda: ModeNetwork(np.array([[0.5, math.nan], [0.0, 0.5]])),
    ],
    ids=["od-nan", "od-inf", "delta", "gamma12", "fwhm-inf", "fwhm-nan", "t_center",
         "t_start", "t_end", "amplitude", "ramp-nan", "ramp-inf", "sim-t_end", "snapshot",
         "splitter-inf", "splitter-nan", "transfer"],
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
    assert tl.by_label("readout")[0].t_start == 2.0


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


def _state(n=16, e_scale=0.5):
    z = make_grid(n)
    e = np.full(n, e_scale, dtype=complex)
    s = np.zeros(n, dtype=complex)
    dz = 1.0 / n
    norm = dz * np.sum(np.abs(e) ** 2)
    return FieldState(
        z, e, s, np.zeros(n, dtype=complex), 0.0, 0.0,
        initial_norm=norm,
    )


@pytest.mark.parametrize("loss, ok", [(-2e-6, False), (-5e-7, True)])
def test_field_state_rejects_loss_below_its_slack(loss, ok):
    # Roundoff may leave the ledger's loss a little below zero; 1e-6 below
    # is a bug.
    z = make_grid(16)
    zero = np.zeros(16, dtype=complex)
    if ok:
        assert FieldState(z, zero, zero, zero, 0.0, loss).loss_accum == loss
    else:
        with pytest.raises(PhysicsViolation, match="negative accumulated loss"):
            FieldState(z, zero, zero, zero, 0.0, loss)


def test_field_state_bookkeeping_closes_on_construction():
    st = _state()
    assert abs(st.bookkeeping_residual()) < 1e-12
    assert st.photon_norm >= 0.0
    assert st.magnon_norm == 0.0


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
