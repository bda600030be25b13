"""Canned figure protocols shared by the CLI and the acceptance suite.

Each protocol pins the operating point of a figure-style numerical
experiment: medium, drives, timing, and grid.  The storage stage, `store`,
writes the pulse into a spin wave for every protocol that starts from one.
The storage-drive sweep builds the visibility curve g2(Omega_S) from its
runs on two grids with `richardson`, the one grid-refinement rule, which
the gate reads too, with `observed_order`; the mixing scenarios feed the
splitter extraction and the Fock oracle; the delay curves and the
three-particle grid are formula-level and read `delay_overlap`.

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
    _check_overlap,
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
from .mbloch import SimulationConfig, Trajectory, _require_step_bound, evolve_batch
from .splitter import (
    ExtractionResult,
    extract_matrix,
    phi_rt_of_matrix,
)
from .stats import g2_formula


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
    each returned state keeps only the spin wave, whose norm a run that
    starts from it takes as its initial norm.  The efficiency is that norm
    over the storage run's input norm.  Every drive is checked before the
    first step.  The trajectories record no emission: their ledgers count
    it.
    """
    runs = []
    for medium, rabi in stages:
        vg = v_group(medium, rabi)
        if not 0 < vg < math.inf:  # NaN fails both bounds
            raise ConfigError("storage drive must be nonzero and finite")
        t_off = PULSE.t_center + 0.5 / vg
        timeline = ControlTimeline((ControlSegment(0.0, t_off, rabi, "storage"),))
        config = SimulationConfig(t_end=t_off + 3.0, n_z=n_z, record_emission=False)
        runs.append((medium, timeline, config, PULSE, None))
    results = []
    for traj in evolve_batch(runs):
        fin = traj.final_state
        if traj.input_norm <= 0:
            raise ConfigError("storage run received no input norm")
        zero = np.zeros(fin.z_grid.size, dtype=complex)
        state = FieldState(fin.z_grid, zero, fin.sigma12, zero)
        results.append(StorageResult(state, fin.magnon_norm / traj.input_norm, traj))
    return results


@dataclass(frozen=True)
class Fig2Params:
    """Operating point for one storage-drive sweep.

    `n_z` is the curve's finest grid.  The curve also runs on `n_z // 2`
    cells, so `n_z` must be even and its half must resolve a stored profile.
    """

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
        if self.n_z % 2:
            raise ConfigError(f"a storage-drive curve's finest grid needs an even "
                              f"number of cells, got {self.n_z}")
        _require_cells(self.n_z // 2)

    def require_step_bound(self) -> None:
        """Raise ConfigError unless the curve's medium and drives keep to the
        step bound on each grid it runs, `n_z` and `n_z // 2` cells, as
        `evolve_batch` checks each run before any steps."""
        medium = MediumParams(od=self.od)
        drive = max(abs(rabi) for rabi in (self.rabi_bs, self.ref_rabi_s, *self.rabi_s_grid))
        for n_z in (self.n_z, self.n_z // 2):
            _require_step_bound(medium, drive, SimulationConfig(t_end=_T_END, n_z=n_z).dt)


FIG2_OD30 = Fig2Params(
    od=30.0,
    rabi_bs=13.0,
    ref_rabi_s=5.0,
    rabi_s_grid=(2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 12.0),
    n_z=80,
)

FIG2_OD150 = Fig2Params(
    od=150.0,
    rabi_bs=27.0,
    ref_rabi_s=11.0,
    rabi_s_grid=(5.0, 7.0, 9.0, 11.0, 14.0, 17.0, 20.0, 24.0),
    n_z=120,
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
class Fig2Grid(_ArrayValue):
    """The storage-drive sweep's raw values on one grid, as read-only
    columns in `rabi_s_grid` order."""

    n_z: int
    # The time of the snapshot the probe spin wave was read from.
    t_probe: float
    efficiency: np.ndarray
    mode_overlap: np.ndarray
    balance: np.ndarray
    # |sigma12(z)| of each stored wave on the cell-centered grid, one row
    # per drive, for the spatial-profile output table.
    spin_abs: np.ndarray
    transmission: float
    release: float
    # Each run's signed loss-quadrature gap, keyed by its storage drive, or
    # by "probe" or "release".
    loss_gaps: dict[float | str, float]

    def __post_init__(self) -> None:
        for name in ("efficiency", "mode_overlap", "balance", "spin_abs"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def visibility(self) -> np.ndarray:
        return self.mode_overlap * self.balance

    @property
    def max_loss_gap(self) -> float:
        """The worst loss-quadrature gap over the grid's runs."""
        return max(abs(gap) for gap in self.loss_gaps.values())


def fig2_grid(params: Fig2Params, n_z: int, t_probe: float | None = None) -> Fig2Grid:
    """The storage-drive sweep's raw values on `n_z` cells.

    The probe spin wave is read at `t_probe`, or, without one, from the
    snapshot in `_PROBE_SNAPSHOTS` that holds the most magnon norm.
    """
    medium = MediumParams(od=params.od)
    timeline = ControlTimeline(
        (ControlSegment(0.0, _T_END, params.rabi_bs, "beamsplit"),)
    )
    times = _PROBE_SNAPSHOTS if t_probe is None else (t_probe,)
    config = SimulationConfig(
        t_end=_T_END, n_z=n_z, snapshot_times=times, record_emission=False
    )

    # The storage runs first, each kept only as its stored wave, efficiency
    # and loss gap, so that no storage trajectory is held while the probe
    # and release runs step.  The reference drive's run is one of them, and
    # a grid drive equal to it reuses it.
    drives = tuple(dict.fromkeys((params.ref_rabi_s, *params.rabi_s_grid)))
    stored = {
        rabi_s: (result.state, result.efficiency, result.trajectory.signed_loss_gap)
        for rabi_s, result in zip(drives, store([(medium, r) for r in drives], n_z))
    }
    gaps = {rabi_s: gap for rabi_s, (_, _, gap) in stored.items()}

    probe = replace(PULSE, t_center=_PROBE_CENTER)
    plain = SimulationConfig(t_end=_T_END, n_z=n_z, record_emission=False)
    run_probe, run_release = evolve_batch([
        (medium, timeline, config, probe, None),
        (medium, timeline, plain, None, stored[params.ref_rabi_s][0]),
    ])
    snapshot = max(run_probe.snapshots, key=lambda s: s.magnon_norm)
    spin_probe = snapshot.sigma12
    transmission = run_probe.emitted_norm / run_probe.input_norm
    # An empty cell stores nothing; release is then 0 rather than 0/0.
    if run_release.input_norm > 1e-12:
        release = run_release.emitted_norm / run_release.input_norm
    else:
        release = 0.0
    gaps["probe"] = run_probe.signed_loss_gap
    gaps["release"] = run_release.signed_loss_gap

    # The columns, each computed at once; an empty overlap or arm pair
    # gives 0 rather than 0/0.
    spins = np.array([stored[rabi_s][0].sigma12 for rabi_s in params.rabi_s_grid])
    efficiency = np.array([stored[rabi_s][1] for rabi_s in params.rabi_s_grid])
    spin_abs = np.abs(spins)
    num = np.array([abs(np.vdot(spin, spin_probe)) ** 2 for spin in spins])
    den = np.sum(spin_abs**2, axis=1) * np.sum(np.abs(spin_probe) ** 2)
    mode_overlap = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    arm_magnon = efficiency * release
    arms = arm_magnon + transmission
    balance = np.divide(2.0 * np.sqrt(arm_magnon * transmission), arms,
                        out=np.zeros_like(arms), where=arms > 0)
    return Fig2Grid(
        n_z=n_z,
        t_probe=snapshot.t_now,
        efficiency=efficiency,
        mode_overlap=mode_overlap,
        balance=balance,
        spin_abs=spin_abs,
        transmission=float(transmission),
        release=float(release),
        loss_gaps=gaps,
    )


def richardson(fine: float | np.ndarray, coarse: float | np.ndarray) -> float | np.ndarray:
    """A second-order value extrapolated from a grid and one half as fine
    (L. F. Richardson, Phil. Trans. R. Soc. A 210, 307 (1911))."""
    return (4.0 * fine - coarse) / 3.0


def observed_order(coarse: float, middle: float, fine: float) -> float:
    """log2 of the ratio of successive differences over three grids, each
    twice as fine as the last; NaN unless both differences share a sign."""
    d_coarse, d_fine = float(coarse - middle), float(middle - fine)
    if not d_coarse * d_fine > 0:
        return math.nan
    return math.log2(d_coarse / d_fine)


def _extrapolated(name: str) -> property:
    return property(lambda curve: richardson(getattr(curve.fine, name),
                                             getattr(curve.coarse, name)))


@dataclass(frozen=True)
class Fig2Curve:
    """The storage-drive sweep at the drives `rabi_s` on two grids, `fine`
    and `coarse`, half as fine; each column but the visibility is the
    grids' `richardson` value, computed at each read in `rabi_s` order."""

    rabi_s: tuple[float, ...]
    fine: Fig2Grid
    coarse: Fig2Grid

    efficiency = _extrapolated("efficiency")
    mode_overlap = _extrapolated("mode_overlap")
    balance = _extrapolated("balance")
    transmission = _extrapolated("transmission")
    release = _extrapolated("release")

    @property
    def visibility(self) -> np.ndarray:
        return self.mode_overlap * self.balance

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

    The sweep runs on `params.n_z` cells and on half as many, the coarse
    grid reading the probe spin wave at the time the fine grid picks.  The
    scheme is second order, so the curve's values are the grids'
    `richardson` values; the visibility is the product of the extrapolated
    overlap and balance.
    """
    fine = fig2_grid(params, params.n_z)
    coarse = fig2_grid(params, params.n_z // 2, fine.t_probe)
    return Fig2Curve(params.rabi_s_grid, fine, coarse)


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
    """Oracle pair statistics against the closed-form value, and the extraction both read."""

    label: str
    g2_oracle: float
    g2_formula: float
    phi_rt: float
    # Worst loss-quadrature gap over the runs.
    loss_gap: float
    extraction: ExtractionResult

    @property
    def overlap(self) -> float:
        return self.extraction.overlap

    @property
    def deviation(self) -> float:
        return abs(self.g2_oracle - self.g2_formula)


def triangle_check(scenario: MixingScenario, stored: StorageResult) -> TriangleCheck:
    """Run a mixing point's mixing stage, from its stored stage `stored`
    and on its grid, through solver, oracle and formula."""
    result = extract_matrix(
        scenario.medium, scenario.rabi_bs, scenario.t_cut,
        replace(PULSE, t_center=_MIX_PROBE_CENTER), stored.state,
        t_end=scenario.t_cut + _MIX_SETTLE,
    )
    b = result.matrix
    overlap_value = result.overlap
    phi = phi_rt_of_matrix(b)
    network = ModeNetwork(b.matrix)
    dist = output_distribution(network, two_photon_input(overlap_value))
    g2_oracle = g2_from_distribution(dist, b.matrix)
    g2_closed = g2_formula(overlap_value, phi)
    return TriangleCheck(
        label=scenario.label,
        g2_oracle=float(g2_oracle),
        g2_formula=float(g2_closed),
        phi_rt=float(phi),
        loss_gap=max(run.loss_gap for run in
                     (stored.trajectory, result.run_magnon, result.run_photon)),
        extraction=result,
    )


def delay_overlap(delays: float | np.ndarray, i_peak: float) -> float | np.ndarray:
    """Mode overlap of two of the figures' probe pulses versus their delay.

    I(d) = i_peak * exp(-d^2 / (4 sigma^2)) with sigma the pulses'
    intensity-profile standard deviation: two identical Gaussian modes
    delayed by d overlap by exactly this much.  An `i_peak` outside [0, 1]
    raises ConfigError.
    """
    _check_overlap(i_peak, "i_peak")
    d = np.asarray(delays, dtype=float)
    return i_peak * np.exp(-(d**2) / (4.0 * PULSE.sigma**2))


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
    g2 = g2_formula(delay_overlap(delays, i_peak), 0.0)
    return delays, np.outer(g2, g2)
