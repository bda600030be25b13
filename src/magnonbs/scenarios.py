"""Canned figure protocols shared by the CLI and the acceptance suite.

Each protocol pins the operating point of a figure-style numerical
experiment: medium, drives, timing, and grid.  The storage-drive sweep
builds the visibility curve g2(Omega_S); the mixing scenarios feed the
splitter extraction and the Fock oracle; the delay curves and the
three-particle grid are formula-level and reuse the envelope model.

Conventions used by every protocol here:
- the probe pulse has FWHM 1.5 and is centered late enough (t = 3.2) that
  its leading tail is negligible at t = 0;
- the storage control is resonant; mixing stages may be detuned;
- lasers retune between stages, so storage and mixing may use different
  MediumParams while the stored spin wave carries over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    MediumParams,
    PulseEnvelope,
    SplitterMatrix,
    _require_cells,
    _require_finite,
)
from .fock_oracle import (
    cascade_three,
    g2_from_distribution,
    g3_from_distribution,
    network_from_splitter,
    output_distribution,
    three_photon_input,
    two_photon_input,
)
from .mbloch import SimulationConfig, evolve, store_magnon
from .splitter import (
    ExtractionResult,
    effective_overlap,
    extract_matrix,
    phi_rt_of_matrix,
)
from .stats import OverlapEnvelope, g2_formula


PULSE_FWHM = 1.5
PULSE_CENTER = 3.2


@dataclass(frozen=True)
class Fig2Params:
    """Operating point for one storage-drive sweep."""

    od: float
    rabi_bs: float
    ref_rabi_s: float
    rabi_s_grid: tuple[float, ...]
    n_z: int
    probe_center: float = 1.0
    t_end: float = 10.0

    def __post_init__(self) -> None:
        # Checked here, so that a bad curve fails before any curve is run.
        _require_finite(self, "od", "t_end")
        if self.od < 0:
            raise ConfigError("optical depth cannot be negative")
        if not self.rabi_s_grid:
            raise ConfigError("rabi_s_grid needs at least one storage drive")
        if 0.0 in self.rabi_s_grid or self.ref_rabi_s == 0.0:
            raise ConfigError("storage drive must be nonzero")
        _require_cells(self.n_z)
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")


FIG2_OD30 = Fig2Params(
    od=30.0,
    rabi_bs=13.0,
    ref_rabi_s=5.0,
    rabi_s_grid=(2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 12.0),
    n_z=160,
)

FIG2_OD150 = Fig2Params(
    od=150.0,
    rabi_bs=27.0,
    ref_rabi_s=11.0,
    rabi_s_grid=(5.0, 7.0, 9.0, 11.0, 14.0, 17.0, 20.0, 24.0),
    n_z=240,
)


@dataclass(frozen=True)
class Fig2Row:
    rabi_s: float
    efficiency: float
    mode_overlap: float
    balance: float
    visibility: float
    g2: float
    # |sigma12(z)| of the stored wave on the cell-centered grid, for the
    # spatial-profile output table.
    spin_abs: tuple[float, ...] = ()


@dataclass(frozen=True)
class Fig2Curve:
    params: Fig2Params
    rows: tuple[Fig2Row, ...]
    transmission: float
    release: float
    max_residual: float

    def optimum(self) -> Fig2Row:
        return max(self.rows, key=lambda r: r.visibility)

    def efficiency_optimum(self) -> Fig2Row:
        return max(self.rows, key=lambda r: r.efficiency)

    def is_unimodal(self) -> bool:
        """Visibility rises strictly to an interior peak, then falls."""
        v = [r.visibility for r in self.rows]
        k = int(np.argmax(v))
        if k == 0 or k == len(v) - 1:
            return False
        rising = all(v[i] < v[i + 1] for i in range(k))
        falling = all(v[i] > v[i + 1] for i in range(k, len(v) - 1))
        return rising and falling


def fig2_curve(params: Fig2Params) -> Fig2Curve:
    """Visibility of photon/spin-wave interference versus storage drive.

    The magnon arm carries amplitude sqrt(storage efficiency x release
    efficiency); the photon arm carries the EIT transmission.  The
    coincidence visibility is the spin-mode overlap of the two in-medium
    excitations times the two-arm balance factor 2ab/(a^2+b^2), and the
    pair-correlation value follows from g2 = 1 + V at the resonant stage
    (zero round-trip phase; validated by extraction in the mixing
    scenarios).
    """
    medium = MediumParams(od=params.od)
    pulse = PulseEnvelope(fwhm=PULSE_FWHM, t_center=PULSE_CENTER)
    timeline = ControlTimeline(
        (ControlSegment(0.0, params.t_end, params.rabi_bs, "beamsplit"),)
    )
    snapshots = tuple(np.arange(0.3, 4.0, 0.05))
    config = SimulationConfig(
        t_end=params.t_end, n_z=params.n_z, snapshot_times=snapshots
    )

    probe = PulseEnvelope(fwhm=PULSE_FWHM, t_center=params.probe_center)
    run_probe = evolve(medium, timeline, config, pulse=probe)
    spin_probe = max(run_probe.snapshots, key=lambda s: s.magnon_norm).sigma12
    transmission = (
        run_probe.final_state.emitted_norm / run_probe.input_norm
    )

    reference = store_magnon(
        medium, pulse, params.ref_rabi_s, n_z=params.n_z
    )
    plain = SimulationConfig(t_end=params.t_end, n_z=params.n_z)
    run_release = evolve(medium, timeline, plain, initial=reference.state)
    # An empty cell stores nothing; release is then 0 rather than 0/0.
    if run_release.input_norm > 1e-12:
        release = (
            run_release.final_state.emitted_norm / run_release.input_norm
        )
    else:
        release = 0.0

    residual = max(
        abs(run_probe.final_state.bookkeeping_residual()),
        abs(run_release.final_state.bookkeeping_residual()),
    )

    rows = []
    for rabi_s in params.rabi_s_grid:
        stored = store_magnon(medium, pulse, rabi_s, n_z=params.n_z)
        residual = max(
            residual,
            abs(stored.trajectory.final_state.bookkeeping_residual()),
        )
        spin_stored = stored.state.sigma12
        num = abs(np.vdot(spin_stored, spin_probe)) ** 2
        den = float(
            np.sum(np.abs(spin_stored) ** 2)
            * np.sum(np.abs(spin_probe) ** 2)
        )
        mode_overlap = num / den if den > 0 else 0.0
        arm_magnon = stored.efficiency * release
        if arm_magnon + transmission > 0:
            balance = (
                2.0 * np.sqrt(arm_magnon * transmission)
                / (arm_magnon + transmission)
            )
        else:
            balance = 0.0
        visibility = mode_overlap * balance
        rows.append(
            Fig2Row(
                rabi_s=rabi_s,
                efficiency=stored.efficiency,
                mode_overlap=float(mode_overlap),
                balance=float(balance),
                visibility=float(visibility),
                g2=float(1.0 + visibility),
                spin_abs=tuple(np.abs(spin_stored).tolist()),
            )
        )
    return Fig2Curve(
        params=params,
        rows=tuple(rows),
        transmission=float(transmission),
        release=float(release),
        max_residual=float(residual),
    )


@dataclass(frozen=True)
class MixingScenario:
    """One splitter operating point: storage stage plus mixing stage."""

    label: str
    storage_medium: MediumParams
    mixing_medium: MediumParams
    rabi_s: float
    rabi_bs: float
    t_cut: float
    probe_center: float
    n_z: int
    t_end: float

    def run(self) -> ExtractionResult:
        pulse = PulseEnvelope(fwhm=PULSE_FWHM, t_center=PULSE_CENTER)
        stored = store_magnon(
            self.storage_medium, pulse, self.rabi_s, n_z=self.n_z
        )
        probe = PulseEnvelope(fwhm=PULSE_FWHM, t_center=self.probe_center)
        timeline = ControlTimeline(
            (ControlSegment(0.0, self.t_cut, self.rabi_bs, "beamsplit"),)
        )
        return extract_matrix(
            self.mixing_medium,
            timeline,
            probe,
            stored.state,
            n_z=self.n_z,
            t_end=self.t_end,
        )


RESONANT_MIXING = MixingScenario(
    label="resonant",
    storage_medium=MediumParams(od=30.0),
    mixing_medium=MediumParams(od=30.0),
    rabi_s=3.0,
    rabi_bs=13.0,
    t_cut=2.0,
    probe_center=0.6,
    n_z=160,
    t_end=5.5,
)

DETUNED_MIXING = MixingScenario(
    label="detuned",
    storage_medium=MediumParams(od=100.0),
    mixing_medium=MediumParams(od=100.0, delta=20.0),
    rabi_s=6.0,
    rabi_bs=21.0,
    t_cut=2.15,
    probe_center=0.6,
    n_z=160,
    t_end=5.65,
)


@dataclass(frozen=True)
class TriangleCheck:
    """Oracle pair statistics against the closed-form value."""

    label: str
    g2_oracle: float
    g2_formula: float
    overlap: float
    phi_rt: float
    imbalance: float
    residual: float

    @property
    def deviation(self) -> float:
        return abs(self.g2_oracle - self.g2_formula)


def triangle_check(scenario: MixingScenario) -> TriangleCheck:
    """Run a mixing scenario through solver, oracle, and formula."""
    result = scenario.run()
    b = result.matrix
    overlap_value = effective_overlap(result)
    phi = phi_rt_of_matrix(b)
    network = network_from_splitter(b)
    dist = output_distribution(network, two_photon_input(overlap_value))
    g2_oracle = g2_from_distribution(dist, b.matrix)
    g2_closed = g2_formula(overlap_value, phi)
    residual = max(
        abs(result.run_magnon.final_state.bookkeeping_residual()),
        abs(result.run_photon.final_state.bookkeeping_residual()),
    )
    return TriangleCheck(
        label=scenario.label,
        g2_oracle=float(g2_oracle),
        g2_formula=float(g2_closed),
        overlap=float(overlap_value),
        phi_rt=float(phi),
        imbalance=float(abs(b.t1 * b.t2) - abs(b.r1 * b.r2)),
        residual=float(residual),
    )


FIG3_PEAK_OVERLAP = 0.75


def fig3_delay_curve(
    phi_rt: float,
    delays: np.ndarray | None = None,
    i_peak: float = FIG3_PEAK_OVERLAP,
    fwhm: float = PULSE_FWHM,
) -> tuple[np.ndarray, np.ndarray]:
    """g2 versus arrival delay at a fixed round-trip phase."""
    if delays is None:
        delays = np.linspace(-4.0, 4.0, 81)
    envelope = OverlapEnvelope.from_pulse(
        PulseEnvelope(fwhm=fwhm, t_center=0.0), i_peak=i_peak
    )
    g2 = np.array([g2_formula(envelope(d), phi_rt) for d in delays])
    return delays, g2


def fig3_phase_curve(
    phases: np.ndarray | None = None, i_value: float = FIG3_PEAK_OVERLAP
) -> tuple[np.ndarray, np.ndarray]:
    """g2 versus round-trip phase at a fixed overlap."""
    if phases is None:
        phases = np.linspace(0.0, 2.0 * np.pi, 97)
    g2 = np.array([g2_formula(i_value, p) for p in phases])
    return phases, g2


def ideal_cascade_g3() -> float:
    """Three-particle correlation of the ideal two-stage cascade.

    Both stages are balanced with all-real amplitudes (zero round-trip
    phase) and all three pairwise overlaps are 1.  Equal real amplitudes
    force loss: 1/2 is the largest passive choice.
    """
    r = 0.5
    stage = SplitterMatrix(t1=r, r1=r, t2=r, r2=r)
    network = cascade_three(stage, stage)
    dist = output_distribution(network, three_photon_input(1.0, 1.0))
    return float(g3_from_distribution(dist, network.transfer))


def fig4_grid(
    n: int = 5,
    delay_span: float = 3.0,
    i_peak: float = 1.0,
    fwhm: float = PULSE_FWHM,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorized three-particle correlation on a delay grid."""
    delays = np.linspace(-delay_span, delay_span, n)
    envelope = OverlapEnvelope.from_pulse(
        PulseEnvelope(fwhm=fwhm, t_center=0.0), i_peak=i_peak
    )
    g3 = np.zeros((n, n))
    for i, d1 in enumerate(delays):
        for j, d2 in enumerate(delays):
            g3[i, j] = g2_formula(envelope(d1), 0.0) * g2_formula(
                envelope(d2), 0.0
            )
    return delays, delays, g3
