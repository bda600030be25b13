"""Canned figure protocols shared by the CLI and the acceptance suite.

Each protocol pins the operating point of a figure-style numerical
experiment: medium, drives, timing, and grid.  The storage stage, `store`,
writes the pulse into a spin wave for every protocol that starts from one.
The storage-drive sweep builds the visibility curve g2(Omega_S); the mixing
scenarios feed the splitter extraction and the Fock oracle; the delay
curves and the three-particle grid are formula-level and reuse the envelope
model.

Conventions used by every protocol here:
- the storage control is resonant; mixing stages may be detuned;
- a mixing point stores in its own atoms with the lasers retuned to
  resonance, so its storage medium is its mixing medium at zero
  detuning, and the stored spin wave carries over unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    C_EFF,
    ConfigError,
    ControlSegment,
    ControlTimeline,
    FieldState,
    MediumParams,
    PulseEnvelope,
    SplitterMatrix,
    _ArrayValue,
    _readonly,
    _require_cells,
)
from .fock_oracle import (
    ModeNetwork,
    cascade_three,
    g2_from_distribution,
    g3_from_distribution,
    output_distribution,
    three_photon_input,
    two_photon_input,
)
from .mbloch import SimulationConfig, Trajectory, evolve_batch
from .splitter import (
    effective_overlap,
    extract_matrix,
    phi_rt_of_matrix,
)
from .stats import OverlapEnvelope, g2_formula


# Every protocol's storage pulse, centered late enough that its leading tail
# is negligible at t = 0; a probe pulse differs from it only in its timing.
PULSE = PulseEnvelope(fwhm=1.5, t_center=3.2)

# The analytic phase's (od, detuning) operating points share one control
# amplitude, calibrated so the resonant point lands exactly on zero phase;
# gamma31 = 2pi x 3 MHz converts the published detunings to internal units.
PHASE_CAL_RABI = 34.25
PHASE_FWHM = 1.8847
PHASE_POINTS = ((30.0, 0.0), (66.0, 10.0), (100.0, 20.0))

# fig4's delay grid: steps per axis, delay span and peak overlap.
FIG4_STEPS = 5
FIG4_SPAN = 3.0
FIG4_I_PEAK = 1.0

# fig2's probe pulse center and run length; it takes the probe spin wave
# from the largest-magnon snapshot at these times.
_PROBE_CENTER = 1.0
_T_END = 10.0
_PROBE_SNAPSHOTS = tuple(np.arange(0.3, 4.0, 0.05))

# A mixing point's probe pulse center and grid, and how long its runs go on
# after the mixing stage is cut, for the light it releases to leave.
_MIX_PROBE_CENTER = 0.6
MIX_N_Z = 160
_MIX_SETTLE = 3.5


def v_group(medium: MediumParams, rabi: float) -> float:
    """Group velocity of the polariton under a constant control drive."""
    w2 = abs(rabi) * abs(rabi)
    g2 = 4.0 * medium.coupling**2
    if w2 == 0:
        return 0.0
    return C_EFF * w2 / (w2 + g2)


@dataclass(frozen=True)
class StorageResult:
    """Outcome of a write stage: prepared spin wave and its efficiency."""

    state: FieldState
    efficiency: float
    trajectory: Trajectory


def store(stages: list[tuple[MediumParams, float]], n_z: int) -> list[StorageResult]:
    """Write `PULSE` into a stationary spin wave in each (medium, storage
    drive) stage, all stepped as one batch on `n_z` cells.

    The control is held at the stage's drive until the pulse center
    reaches the middle of the cell and then ramped off.  After a settle
    period of 3 the leftover field and polarization have decayed or left;
    each returned state keeps only the spin wave and restarts the
    bookkeeping.  Every drive is checked before the first step.
    """
    runs = []
    for medium, rabi in stages:
        vg = v_group(medium, rabi)
        if not 0 < vg < math.inf:  # NaN fails both bounds
            raise ConfigError("storage drive must be nonzero and finite")
        t_off = PULSE.t_center + 0.5 / vg
        timeline = ControlTimeline((ControlSegment(0.0, t_off, rabi, "storage"),))
        runs.append((medium, timeline, SimulationConfig(t_end=t_off + 3.0, n_z=n_z), PULSE, None))
    results = []
    for traj in evolve_batch(runs):
        fin = traj.final_state
        if fin.input_norm <= 0:
            raise ConfigError("storage run received no input norm")
        zero = np.zeros(fin.z_grid.size, dtype=complex)
        state = FieldState(fin.z_grid, zero, fin.sigma12.copy(), zero.copy(),
                           0.0, 0.0, 0.0, 0.0, fin.magnon_norm)
        results.append(StorageResult(state, fin.magnon_norm / fin.input_norm, traj))
    return results


@dataclass(frozen=True)
class Fig2Params:
    """Operating point for one storage-drive sweep."""

    od: float
    rabi_bs: float
    ref_rabi_s: float
    rabi_s_grid: tuple[float, ...]
    n_z: int

    def __post_init__(self) -> None:
        # Checked here, so that a bad curve fails before any curve is run;
        # the medium owns the rules on its depth.
        MediumParams(od=self.od)
        if not self.rabi_s_grid:
            raise ConfigError("rabi_s_grid needs at least one storage drive")
        if 0.0 in self.rabi_s_grid or self.ref_rabi_s == 0.0:
            raise ConfigError("storage drive must be nonzero")
        _require_cells(self.n_z)


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

# The published depths, low then high: fig2's default curves and the gate's.
FIG2_CURVES = (FIG2_OD30, FIG2_OD150)


def fig2_params(od: float) -> Fig2Params:
    """The storage-drive sweep calibrated for depth `od`.

    An uncalibrated depth reuses the low-depth drive schedule, so that
    shallow and empty cells stay runnable.
    """
    for params in FIG2_CURVES:
        if od == params.od:
            return params
    return replace(FIG2_OD30, od=od)


@dataclass(frozen=True, eq=False)
class Fig2Curve(_ArrayValue):
    """The storage-drive sweep as read-only columns in `rabi_s_grid` order."""

    rabi_s: np.ndarray
    efficiency: np.ndarray
    mode_overlap: np.ndarray
    balance: np.ndarray
    visibility: np.ndarray
    # |sigma12(z)| of each stored wave on the cell-centered grid, one row
    # per drive, for the spatial-profile output table.
    spin_abs: np.ndarray
    transmission: float
    release: float
    # Worst bookkeeping residual and loss-quadrature gap over the curve's runs.
    max_residual: float
    max_loss_gap: float

    def __post_init__(self) -> None:
        for name in ("rabi_s", "efficiency", "mode_overlap", "balance", "visibility",
                     "spin_abs"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def g2(self) -> np.ndarray:
        return 1.0 + self.visibility

    def optimum(self) -> int:
        """The index of the peak visibility."""
        return int(np.argmax(self.visibility))

    def is_unimodal(self) -> bool:
        """Visibility rises strictly to an interior peak, then falls."""
        k = self.optimum()
        steps = np.diff(self.visibility)
        rising, falling = steps[:k] > 0, steps[k:] < 0
        return bool(0 < k < steps.size and rising.all() and falling.all())


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
    timeline = ControlTimeline(
        (ControlSegment(0.0, _T_END, params.rabi_bs, "beamsplit"),)
    )
    config = SimulationConfig(
        t_end=_T_END, n_z=params.n_z, snapshot_times=_PROBE_SNAPSHOTS
    )

    # The storage runs first, each kept only as its stored wave, efficiency
    # and ledger checks, so that no storage trajectory is held while the
    # probe and release runs step.  The reference drive's run is one of
    # them, and a grid drive equal to it reuses it.
    drives = tuple(dict.fromkeys((params.ref_rabi_s, *params.rabi_s_grid)))
    stored = {
        rabi_s: (result.state, result.efficiency, _ledger_checks(result.trajectory))
        for rabi_s, result in zip(
            drives, store([(medium, r) for r in drives], params.n_z))
    }
    checks = [check for _, _, check in stored.values()]

    probe = replace(PULSE, t_center=_PROBE_CENTER)
    plain = SimulationConfig(t_end=_T_END, n_z=params.n_z)
    run_probe, run_release = evolve_batch([
        (medium, timeline, config, probe, None),
        (medium, timeline, plain, None, stored[params.ref_rabi_s][0]),
    ])
    spin_probe = max(run_probe.snapshots, key=lambda s: s.magnon_norm).sigma12
    transmission = (
        run_probe.final_state.emitted_norm / run_probe.input_norm
    )
    # An empty cell stores nothing; release is then 0 rather than 0/0.
    if run_release.input_norm > 1e-12:
        release = (
            run_release.final_state.emitted_norm / run_release.input_norm
        )
    else:
        release = 0.0
    checks += [_ledger_checks(run_probe), _ledger_checks(run_release)]

    # The columns, each computed at once; an empty overlap or arm pair
    # gives 0 rather than 0/0.
    grid = params.rabi_s_grid
    spins = np.array([stored[rabi_s][0].sigma12 for rabi_s in grid])
    efficiency = np.array([stored[rabi_s][1] for rabi_s in grid])
    spin_abs = np.abs(spins)
    num = np.array([abs(np.vdot(spin, spin_probe)) ** 2 for spin in spins])
    den = np.sum(spin_abs**2, axis=1) * np.sum(np.abs(spin_probe) ** 2)
    mode_overlap = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    arm_magnon = efficiency * release
    arms = arm_magnon + transmission
    balance = np.divide(2.0 * np.sqrt(arm_magnon * transmission), arms,
                        out=np.zeros_like(arms), where=arms > 0)
    return Fig2Curve(
        rabi_s=grid,
        efficiency=efficiency,
        mode_overlap=mode_overlap,
        balance=balance,
        visibility=mode_overlap * balance,
        spin_abs=spin_abs,
        transmission=float(transmission),
        release=float(release),
        max_residual=max(c[0] for c in checks),
        max_loss_gap=max(c[1] for c in checks),
    )


def _ledger_checks(run: Trajectory) -> tuple[float, float]:
    """A run's bookkeeping residual and loss-quadrature gap.

    Taken as each run ends, so that a sweep holds no finished trajectory.
    """
    return abs(run.final_state.bookkeeping_residual()), run.loss_gap


@dataclass(frozen=True)
class MixingScenario:
    """One splitter operating point: storage stage plus mixing stage.

    The wave is stored in `medium` at zero detuning, then mixed in `medium`
    under a beamsplit drive `rabi_bs` cut at `t_cut`.
    """

    label: str
    medium: MediumParams
    rabi_s: float
    rabi_bs: float
    t_cut: float

    @property
    def stage(self) -> tuple[MediumParams, float]:
        """The storage stage as `store` takes it, stored on `MIX_N_Z` cells:
        the point's medium at zero detuning and its storage drive."""
        return replace(self.medium, delta=0.0), self.rabi_s


RESONANT_MIXING = MixingScenario(
    label="resonant",
    medium=MediumParams(od=30.0),
    rabi_s=3.0,
    rabi_bs=13.0,
    t_cut=2.0,
)

DETUNED_MIXING = MixingScenario(
    label="detuned",
    medium=MediumParams(od=100.0, delta=20.0),
    rabi_s=6.0,
    rabi_bs=21.0,
    t_cut=2.15,
)


@dataclass(frozen=True)
class TriangleCheck:
    """Oracle pair statistics against the closed-form value."""

    label: str
    g2_oracle: float
    g2_formula: float
    overlap: float
    phi_rt: float
    # Worst bookkeeping residual and loss-quadrature gap over the runs.
    residual: float
    loss_gap: float

    @property
    def deviation(self) -> float:
        return abs(self.g2_oracle - self.g2_formula)


def triangle_check(scenario: MixingScenario, stored: StorageResult) -> TriangleCheck:
    """Run a mixing point's mixing stage, from its stored stage `stored`,
    through solver, oracle and formula."""
    result = extract_matrix(
        scenario.medium, scenario.rabi_bs, scenario.t_cut,
        replace(PULSE, t_center=_MIX_PROBE_CENTER), stored.state,
        n_z=MIX_N_Z, t_end=scenario.t_cut + _MIX_SETTLE,
    )
    b = result.matrix
    overlap_value = effective_overlap(result)
    phi = phi_rt_of_matrix(b)
    network = ModeNetwork(b.matrix)
    dist = output_distribution(network, two_photon_input(overlap_value))
    g2_oracle = g2_from_distribution(dist, b.matrix)
    g2_closed = g2_formula(overlap_value, phi)
    checks = [_ledger_checks(run) for run in
              (stored.trajectory, result.run_magnon, result.run_photon)]
    return TriangleCheck(
        label=scenario.label,
        g2_oracle=float(g2_oracle),
        g2_formula=float(g2_closed),
        overlap=float(overlap_value),
        phi_rt=float(phi),
        residual=max(c[0] for c in checks),
        loss_gap=max(c[1] for c in checks),
    )


def delay_envelope(i_peak: float) -> OverlapEnvelope:
    """Mode overlap versus arrival delay of two of the figures' probe pulses."""
    return OverlapEnvelope(i_peak=i_peak, sigma=PULSE.sigma)


def fig3_delay_curve(phi_rt: float, delays: np.ndarray, i_peak: float) -> np.ndarray:
    """g2 versus arrival delay at a fixed round-trip phase."""
    return g2_formula(delay_envelope(i_peak)(delays), phi_rt)


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
    n: int, delay_span: float, i_peak: float
) -> tuple[np.ndarray, np.ndarray]:
    """Factorized three-particle correlation on an n x n delay grid.

    Returns the delays, shared by both axes, and g3[i, j] at
    (delays[i], delays[j]).
    """
    delays = np.linspace(-delay_span, delay_span, n)
    g2 = g2_formula(delay_envelope(i_peak)(delays), 0.0)
    return delays, np.outer(g2, g2)
