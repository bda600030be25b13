"""Weak-probe propagation through the driven three-level medium.

The coupled amplitudes are the slowly varying probe field E(z, t), the
collective optical polarization P(z, t) and the collective spin wave S(z, t),
obeying

    (d/dt + c_eff d/dz) E = i G P
    dP/dt = -(gamma31 - i delta) P + i G E + (i/2) Omega(t) S
    dS/dt = -gamma12 S + (i/2) conj(Omega(t)) P

with G the collective coupling and Omega the control Rabi frequency.  The
integrator uses Strang splitting: a half step of the local (z-independent)
3x3 linear map, an exact one-cell advection of E, then the second half step.
The time step is locked to dt = dz / c_eff so the advection is an integer
cell shift and introduces no numerical dispersion.

Norm bookkeeping is exact by construction: every half step records the norm
it removed (the local map is contractive), and the advection moves one cell
of |E|^2 out at z = L and one cell in at z = 0.  The sum

    photon + magnon + excited + emitted + loss

therefore equals the injected plus initial norm to machine precision at every
step, independent of grid resolution.  A separate quadrature of
2*gamma31*|P|^2 + 2*gamma12*|S|^2 is kept as a physics cross-check on the
accumulated loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import (
    ConfigError,
    ControlTimeline,
    FieldState,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    _require_finite,
    make_grid,
)

# Stop the run if the held norm ever exceeds the input by this much; the
# scheme is contractive, so anything above roundoff means corrupted state.
_RUNAWAY_TOL = 1e-6


@dataclass(frozen=True)
class SimulationConfig:
    """Grid resolution and run length for one propagation run.

    `n_z` counts spatial cells; the time step is length / (n_z * c_eff).
    """

    t_end: float
    n_z: int = 160
    record_every: int = 4
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _require_finite(self, "t_end")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times)
        )


@dataclass(frozen=True)
class Trajectory:
    """Time series and final state of one propagation run.

    `emitted` holds the outgoing amplitude at z = L in temporal
    normalization: dt * sum |emitted|^2 is the norm that left the cell.
    `control` is the control Rabi frequency sampled at the same midpoint
    times.
    """

    times: np.ndarray
    emitted: np.ndarray
    control: np.ndarray
    norm_times: np.ndarray
    photon_series: np.ndarray
    magnon_series: np.ndarray
    excited_series: np.ndarray
    loss_series: np.ndarray
    emitted_series: np.ndarray
    final_state: FieldState
    loss_quad: float
    snapshots: tuple[FieldState, ...] = ()

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def input_norm(self) -> float:
        return self.final_state.input_norm

    def emitted_norm_between(self, t0: float, t1: float) -> float:
        """Norm emitted at z = L inside the window [t0, t1]."""
        mask = (self.times >= t0) & (self.times <= t1)
        return float(self.dt * np.sum(np.abs(self.emitted[mask]) ** 2))

    def norm_split_at(self, t: float) -> tuple[float, float, float, float]:
        """(photon, magnon, excited, loss) at the recorded time nearest t."""
        i = int(np.argmin(np.abs(self.norm_times - t)))
        return (
            float(self.photon_series[i]),
            float(self.magnon_series[i]),
            float(self.excited_series[i]),
            float(self.loss_series[i]),
        )


def _local_map(medium: MediumParams, omega: complex, dt_half: float) -> np.ndarray:
    g = medium.coupling
    m = np.array(
        [
            [0.0, 1j * g, 0.0],
            [1j * g, -(medium.gamma31 - 1j * medium.delta), 0.5j * omega],
            [0.0, 0.5j * np.conj(omega), -medium.gamma12],
        ],
        dtype=complex,
    )
    return expm(m * dt_half)


def evolve(
    medium: MediumParams,
    timeline: ControlTimeline,
    config: SimulationConfig,
    pulse: PulseEnvelope | None = None,
    initial: FieldState | None = None,
) -> Trajectory:
    """Propagate the coupled amplitudes from t = t0 to t0 + t_end.

    `pulse` injects probe amplitude at z = 0; `initial` seeds the cell with a
    prepared state (its bookkeeping is restarted: whatever norm it holds
    becomes the initial norm, prior ledger entries are discarded).  Both may
    be given at once; either may be omitted.
    """
    z = make_grid(medium.length, config.n_z)
    dz = medium.length / config.n_z
    dt = dz / medium.c_eff
    sqrt_c = math.sqrt(medium.c_eff)

    if initial is not None:
        if initial.z_grid.size != z.size or abs(initial.z_grid[-1] - z[-1]) > 1e-12:
            raise ConfigError("initial state grid does not match the run grid")
        v = np.vstack(
            [
                initial.e_field.astype(complex),
                initial.sigma13.astype(complex),
                initial.sigma12.astype(complex),
            ]
        )
        t0 = initial.t_now
    else:
        v = np.zeros((3, z.size), dtype=complex)
        t0 = 0.0

    initial_norm = float(dz * np.sum(np.abs(v) ** 2))
    n_steps = max(1, int(math.ceil(config.t_end / dt - 1e-9)))

    times = np.empty(n_steps)
    emitted = np.empty(n_steps, dtype=complex)
    control = np.empty(n_steps, dtype=complex)

    n_rec = n_steps // config.record_every + 2
    norm_times = np.empty(n_rec)
    photon_s = np.empty(n_rec)
    magnon_s = np.empty(n_rec)
    excited_s = np.empty(n_rec)
    loss_s = np.empty(n_rec)
    emitted_s = np.empty(n_rec)

    snap_steps = {
        min(n_steps - 1, max(0, int(round((t - t0) / dt)))): t
        for t in config.snapshot_times
    }
    snapshots: list[FieldState] = []

    loss_accum = 0.0
    emitted_norm = 0.0
    injected_norm = 0.0
    loss_quad = 0.0
    two_g31 = 2.0 * medium.gamma31
    two_g12 = 2.0 * medium.gamma12

    u_cache: dict[complex, np.ndarray] = {}
    i_rec = 0

    def record(t: float) -> None:
        nonlocal i_rec
        norm_times[i_rec] = t
        photon_s[i_rec] = dz * np.sum(np.abs(v[0]) ** 2)
        magnon_s[i_rec] = dz * np.sum(np.abs(v[2]) ** 2)
        excited_s[i_rec] = dz * np.sum(np.abs(v[1]) ** 2)
        loss_s[i_rec] = loss_accum
        emitted_s[i_rec] = emitted_norm
        i_rec += 1

    for n in range(n_steps):
        t_mid = t0 + (n + 0.5) * dt
        omega = complex(timeline.rabi(t_mid))
        u = u_cache.get(omega)
        if u is None:
            if len(u_cache) > 4096:
                u_cache.clear()
            u = _local_map(medium, omega, 0.5 * dt)
            u_cache[omega] = u

        before = dz * np.sum(np.abs(v) ** 2)
        v = u @ v
        loss_accum += before - dz * np.sum(np.abs(v) ** 2)

        e_out = v[0, -1]
        emitted[n] = sqrt_c * e_out
        times[n] = t_mid
        control[n] = omega
        emitted_norm += dz * abs(e_out) ** 2

        v[0, 1:] = v[0, :-1]
        if pulse is not None:
            amp = complex(pulse.amplitude(t_mid))
            v[0, 0] = amp / sqrt_c
            injected_norm += dt * abs(amp) ** 2
        else:
            v[0, 0] = 0.0

        loss_quad += dt * dz * (
            two_g31 * np.sum(np.abs(v[1]) ** 2) + two_g12 * np.sum(np.abs(v[2]) ** 2)
        )

        before = dz * np.sum(np.abs(v) ** 2)
        v = u @ v
        loss_accum += before - dz * np.sum(np.abs(v) ** 2)

        if n % config.record_every == 0:
            record(t0 + (n + 1) * dt)

        if n in snap_steps:
            snapshots.append(
                FieldState(
                    z, v[0].copy(), v[2].copy(), v[1].copy(),
                    t0 + (n + 1) * dt, loss_accum, emitted_norm,
                    injected_norm, initial_norm,
                )
            )

        if n % 256 == 0:
            held = dz * np.sum(np.abs(v) ** 2)
            if not np.isfinite(held):
                raise PhysicsViolation(f"non-finite state norm at t={t_mid:.4g}")
            budget = initial_norm + injected_norm
            if held > budget + _RUNAWAY_TOL:
                raise PhysicsViolation(
                    f"held norm {held:.6g} exceeds input {budget:.6g} at "
                    f"t={t_mid:.4g}"
                )

    record(t0 + n_steps * dt)

    final = FieldState(
        z, v[0].copy(), v[2].copy(), v[1].copy(),
        t0 + n_steps * dt, loss_accum, emitted_norm, injected_norm, initial_norm,
    )
    return Trajectory(
        times=times,
        emitted=emitted,
        control=control,
        norm_times=norm_times[:i_rec],
        photon_series=photon_s[:i_rec],
        magnon_series=magnon_s[:i_rec],
        excited_series=excited_s[:i_rec],
        loss_series=loss_s[:i_rec],
        emitted_series=emitted_s[:i_rec],
        final_state=final,
        loss_quad=loss_quad,
        snapshots=tuple(snapshots),
    )


def v_group(medium: MediumParams, rabi: complex) -> float:
    """Group velocity of the polariton under a constant control drive."""
    w2 = abs(rabi) ** 2
    g2 = 4.0 * medium.coupling**2
    if w2 == 0:
        return 0.0
    return medium.c_eff * w2 / (w2 + g2)


def dsp_project(
    state: FieldState, rabi: complex, medium: MediumParams
) -> tuple[np.ndarray, np.ndarray]:
    """Split the state into dark and bright polariton amplitudes.

    The mixing angle follows tan(theta) = G / |Omega|: dark = cos(theta) E -
    sin(theta) S and bright = sin(theta) E + cos(theta) S, evaluated on the
    spatial grid.  With the control off the dark component is the (negated)
    spin wave; with a strong control it is the bare field.
    """
    g = medium.coupling
    w = abs(rabi)
    denom = math.hypot(w, g)
    if denom == 0:
        cos_t, sin_t = 0.0, 1.0
    else:
        cos_t, sin_t = w / denom, g / denom
    dark = cos_t * state.e_field - sin_t * state.sigma12
    bright = sin_t * state.e_field + cos_t * state.sigma12
    return dark, bright


def overlap(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """Mode overlap |<a|b>|^2 / (<a|a><b|b>) on a common uniform grid."""
    psi_a = np.asarray(psi_a, dtype=complex)
    psi_b = np.asarray(psi_b, dtype=complex)
    if psi_a.shape != psi_b.shape:
        raise ConfigError("overlap needs amplitudes on the same grid")
    na = float(np.sum(np.abs(psi_a) ** 2))
    nb = float(np.sum(np.abs(psi_b) ** 2))
    if na <= 0 or nb <= 0:
        raise ConfigError("overlap of a zero-norm mode is undefined")
    inner = abs(np.vdot(psi_a, psi_b)) ** 2 / (na * nb)
    return float(min(inner, 1.0))


@dataclass(frozen=True)
class StorageResult:
    """Outcome of a write stage: prepared spin wave and its efficiency."""

    state: FieldState
    efficiency: float
    residual: float
    trajectory: Trajectory


def store_magnon(
    medium: MediumParams,
    pulse: PulseEnvelope,
    rabi_storage: complex,
    t_off: float | None = None,
    n_z: int = 160,
    ramp: float | None = None,
    settle: float = 3.0,
) -> StorageResult:
    """Write the probe pulse into a stationary spin wave.

    The control is held at `rabi_storage` until `t_off` (by default the time
    at which the pulse center reaches the middle of the cell) and then ramped
    off.  After a settle period the leftover field and polarization decay or
    leave; the returned state keeps only the spin wave and restarts the
    bookkeeping, with the dropped residual norm reported.
    """
    from .core import ControlSegment, DEFAULT_RAMP

    if ramp is None:
        ramp = DEFAULT_RAMP
    if t_off is None:
        vg = v_group(medium, rabi_storage)
        if vg <= 0:
            raise ConfigError("storage drive must be nonzero")
        t_off = pulse.t_center + 0.5 * medium.length / vg
    timeline = ControlTimeline(
        (ControlSegment(0.0, t_off, rabi_storage, "storage", ramp),)
    )
    config = SimulationConfig(t_end=t_off + settle, n_z=n_z)
    traj = evolve(medium, timeline, config, pulse=pulse)
    fin = traj.final_state
    stored = fin.magnon_norm
    if fin.input_norm <= 0:
        raise ConfigError("storage run received no input norm")
    residual = fin.photon_norm + fin.excited_norm
    z = fin.z_grid
    zero = np.zeros(z.size, dtype=complex)
    state = FieldState(
        z, zero, fin.sigma12.copy(), zero.copy(),
        0.0, 0.0, 0.0, 0.0, stored,
    )
    return StorageResult(
        state=state,
        efficiency=stored / fin.input_norm,
        residual=residual,
        trajectory=traj,
    )


def storage_efficiency(
    traj: Trajectory, timeline: ControlTimeline, settle: float = 1.0
) -> float:
    """Fraction of the input norm held as spin wave after the write stage."""
    stores = timeline.by_label("storage")
    if not stores:
        raise ConfigError("timeline has no storage segment")
    t_eval = stores[-1].t_end + settle
    _, magnon, _, _ = traj.norm_split_at(t_eval)
    if traj.input_norm <= 0:
        raise ConfigError("trajectory carries no input norm")
    return magnon / traj.input_norm
