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

Whatever does not depend on the state is computed once per run, before the
first step.  The control drive and the probe pulse are sampled at all step
midpoints t0 + (n + 1/2) dt in one vector call each, and the half-step
propagators come from one stacked `expm` over the distinct drive values: a
constant drive needs one, a ramp one per step of the ramp.  Each step then
picks its propagator by index and applies it between two preallocated
buffers, taking squared norms as dot products of their float64 views.

Norm bookkeeping is exact by construction: every half step records the norm
it removed (the local map is contractive), and the advection moves one cell
of |E|^2 out at z = L and one cell in at z = 0.  The ledger reuses the norms
it has: the norm before the first half step is the one after the previous
step, and the norm before the second is the one after the first, minus the
emitted cell, plus the injected cell.  The sum

    photon + magnon + excited + emitted + loss

therefore equals the injected plus initial norm to machine precision at every
step, independent of grid resolution.  A separate quadrature of
2*gamma31*|P|^2 + 2*gamma12*|S|^2 is kept as a physics cross-check on the
accumulated loss; it reads the norms after the first half step, which the
advection leaves unchanged.  Every 256 steps the held norm is checked for
non-finite values and for exceeding the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    DEFAULT_RAMP,
    FieldState,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    _require_cells,
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
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _require_finite(self, "t_end")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        _require_cells(self.n_z)
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times)
        )


@dataclass(frozen=True)
class Trajectory:
    """Emitted field, final state and snapshots of one propagation run.

    `times` are the step midpoints, `dt` apart.  `emitted` holds the
    outgoing amplitude at z = L in temporal normalization: dt * sum
    |emitted|^2 is the norm that left the cell.  `control` is the control
    Rabi frequency sampled at the same midpoint times.  The norm ledger is
    observable at the end (`final_state`) and at each requested snapshot
    time (`snapshots`); each is a FieldState carrying the full ledger.
    """

    times: np.ndarray
    dt: float
    emitted: np.ndarray
    control: np.ndarray
    final_state: FieldState
    loss_quad: float
    snapshots: tuple[FieldState, ...] = ()

    @property
    def input_norm(self) -> float:
        return self.final_state.input_norm


def _local_maps(medium: MediumParams, drives: np.ndarray, dt_half: float) -> np.ndarray:
    """Half-step propagators of the local 3x3 system, one per drive value."""
    gen = np.zeros((drives.size, 3, 3), dtype=complex)
    gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling
    gen[:, 1, 1] = -(medium.gamma31 - 1j * medium.delta)
    gen[:, 1, 2] = 0.5j * drives
    gen[:, 2, 1] = 0.5j * np.conj(drives)
    gen[:, 2, 2] = -medium.gamma12
    return expm(gen * dt_half)


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

    # v holds the state between steps and w the state between the two half
    # steps; the rows are E, sigma13, sigma12.
    v = np.zeros((3, z.size), dtype=complex)
    t0 = 0.0
    if initial is not None:
        if initial.z_grid.size != z.size or abs(initial.z_grid[-1] - z[-1]) > 1e-12:
            raise ConfigError("initial state grid does not match the run grid")
        v[0], v[1], v[2] = initial.e_field, initial.sigma13, initial.sigma12
        t0 = initial.t_now
    w = np.empty_like(v)
    # Squared norms are dot products of the float64 views: re^2 + im^2 per
    # entry, with no temporary arrays.
    v_flat = v.view(np.float64).reshape(-1)
    w_rows = tuple(w.view(np.float64))
    w_field = w[0]
    dot = np.dot

    n_steps = max(1, int(math.ceil(config.t_end / dt - 1e-9)))
    times = t0 + (np.arange(n_steps) + 0.5) * dt
    control = timeline.rabi(times)
    drives, map_index = np.unique(control, return_inverse=True)
    maps = _local_maps(medium, drives, 0.5 * dt)
    map_index = map_index.astype(np.int32)
    if pulse is not None:
        amps = pulse.amplitude(times)
        boundary = amps / sqrt_c
        # dt |amp|^2 is also dz |amp / sqrt(c_eff)|^2, the norm of the
        # injected cell.
        injected = dt * np.abs(amps) ** 2
    else:
        boundary = np.zeros(n_steps, dtype=complex)
        injected = np.zeros(n_steps)
    emitted = np.empty(n_steps, dtype=complex)

    snap_steps = {
        min(n_steps - 1, max(0, int(round((t - t0) / dt))))
        for t in config.snapshot_times
    }
    snapshots: list[FieldState] = []

    held = dz * dot(v_flat, v_flat)
    initial_norm = float(held)
    loss_accum = 0.0
    emitted_norm = 0.0
    injected_norm = 0.0
    loss_quad = 0.0
    quad_p = dt * dz * 2.0 * medium.gamma31
    quad_s = dt * dz * 2.0 * medium.gamma12

    for n in range(n_steps):
        u = maps[map_index[n]]
        np.matmul(u, v, out=w)
        e_sq = dot(w_rows[0], w_rows[0])
        p_sq = dot(w_rows[1], w_rows[1])
        s_sq = dot(w_rows[2], w_rows[2])
        mid = dz * (e_sq + p_sq + s_sq)
        loss_accum += held - mid
        # The advection below touches only the E row, so these sigma norms
        # are also those the quadrature would read after it.
        loss_quad += quad_p * p_sq + quad_s * s_sq

        e_out = w_field[-1]
        emitted[n] = e_out
        out_norm = dz * abs(e_out) ** 2
        emitted_norm += out_norm
        w_field[1:] = w_field[:-1]
        w_field[0] = boundary[n]
        in_norm = injected[n]
        injected_norm += in_norm

        np.matmul(u, w, out=v)
        before = mid - out_norm + in_norm
        held = dz * dot(v_flat, v_flat)
        loss_accum += before - held

        if n in snap_steps:
            snapshots.append(
                FieldState(
                    z, v[0].copy(), v[2].copy(), v[1].copy(),
                    t0 + (n + 1) * dt, loss_accum, emitted_norm,
                    injected_norm, initial_norm,
                )
            )

        if n % 256 == 0:
            t_mid = times[n]
            if not np.isfinite(held):
                raise PhysicsViolation(f"non-finite state norm at t={t_mid:.4g}")
            budget = initial_norm + injected_norm
            if held > budget + _RUNAWAY_TOL:
                raise PhysicsViolation(
                    f"held norm {held:.6g} exceeds input {budget:.6g} at "
                    f"t={t_mid:.4g}"
                )

    emitted *= sqrt_c

    final = FieldState(
        z, v[0].copy(), v[2].copy(), v[1].copy(),
        t0 + n_steps * dt, loss_accum, emitted_norm, injected_norm, initial_norm,
    )
    return Trajectory(
        times=times,
        dt=dt,
        emitted=emitted,
        control=control,
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

