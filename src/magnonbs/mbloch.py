"""Weak-probe propagation through the driven three-level medium.

The coupled amplitudes are the slowly varying probe field E(z, t), the
collective optical polarization P(z, t) and the collective spin wave S(z, t),
obeying

    (d/dt + C_EFF d/dz) E = i G P
    dP/dt = -(1 - i delta) P + i G E + (i/2) Omega(t) S
    dS/dt = -gamma12 S + (i/2) conj(Omega(t)) P

in the units of `core` (gamma31 = L = 1), with G the collective coupling
and Omega the control Rabi frequency.  The integrator uses Strang
splitting: a half step of the local (z-independent) 3x3 linear map, an
exact one-cell advection of E, then the second half step.  The time step
is locked to dt = dz / C_EFF so the advection is an integer cell shift and
introduces no numerical dispersion.

Whatever does not depend on the state is computed once per run, before the
first step.  The control drive and the probe pulse are sampled at all step
midpoints t0 + (n + 1/2) dt in one vector call each.  The drive splits into
runs of equal values, each with one half-step map R = exp(M dt/2) of its
local generator M: a constant drive has one run, a ramp one per step of
the ramp.  The maps are built at most _MAP_BLOCK runs at a time, which
bounds their memory, by this module's `expm`, which exponentiates the
block's stacked generators at once in numpy.

The state is held in real form, as a (6, n_z) array with rows (Re E, Im E,
Re P, Im P, Re S, Im S), and each complex 3x3 map as its real 6x6 block.
The loop carries the state half a step past each step start, w_n = U_n v_n,
so that the second half step of step n and the first of step n + 1 fuse
into one map F_n = U_{n+1} U_n: R_s R_s inside a run, R_{s+1} R_s where run
s ends.  A step then reads the loss quadrature off w_n, emits the last E
cell, shifts and injects, and applies F_n: one real matrix product.

The ledger of norms is kept where the state is read: every 256 steps, at
each snapshot and at the last step.  There the state at the step end,
v_{n+1} = U_n S(w_n) with S the advection, goes to a scratch buffer that
never feeds back into the carried state, so snapshots leave the run
unchanged.  Every half step is a contraction and the advection moves one
cell of |E|^2 out at z = 1 and one in at z = 0, so the norm removed per
half step telescopes into

    loss = initial + injected - emitted - held,

with the emitted norm summed from the recorded field and the injected norm
from the sampled pulse.  The ledger thus closes to roundoff by
construction, whatever the grid.  The independent check is the per-step
quadrature `loss_quad` of 2*|P|^2 + 2*gamma12*|S|^2, read off each
w_n (the advection leaves P and S unchanged): its gap to the ledger's loss,
`Trajectory.loss_gap`, is the midpoint rule's discretization error and
falls 4x per grid doubling.  Every 256 steps the held norm is also checked
for non-finite values and for exceeding the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .core import (
    C_EFF,
    ConfigError,
    ControlSegment,
    ControlTimeline,
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
# Steps between the non-finite and runaway checks on the held norm.
_CHECK_EVERY = 256
# Drive runs whose maps are built at once, by one `expm` of their stacked
# generators: this bounds the memory a drive that changes every step (a long
# ramp) can take, while every run of the acceptance gate (at most about 600
# drive runs) is one block.
_MAP_BLOCK = 1024
# Coefficients b_0 .. b_13 of the degree-13 Pade approximant to exp, and the
# largest 1-norm at which it is exact to double precision (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class SimulationConfig:
    """Grid resolution and run length for one propagation run.

    `n_z` counts spatial cells; the time step is 1 / (n_z * C_EFF).
    Snapshot times are measured from the run's start and lie in [0, t_end].
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
        _require_finite(self, "snapshot_times")
        if any(not 0.0 <= t <= self.t_end for t in self.snapshot_times):
            raise ConfigError(
                f"snapshot times must lie in [0, t_end = {self.t_end}], "
                f"got {self.snapshot_times}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Emitted field, final state and snapshots of one propagation run.

    `times` are the step midpoints, `dt` apart.  `emitted` holds the
    outgoing amplitude at z = 1 in temporal normalization: dt * sum
    |emitted|^2 is the norm that left the cell.  `control` is the control
    Rabi frequency sampled at the same midpoint times.  The norm ledger is
    observable at the end (`final_state`) and at the step end nearest each
    requested snapshot time (`snapshots`); each is a FieldState carrying
    the full ledger.  `loss_quad` is the loss summed independently of that
    ledger, step by step from the decay rates.
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

    @property
    def loss_gap(self) -> float:
        """|loss_quad - ledger loss| / ledger loss, the independent loss check.

        Infinite when the ledger records no loss, as no relative gap exists.
        """
        loss = self.final_state.loss_accum
        return abs(self.loss_quad - loss) / loss if loss > 0 else math.inf


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a stack of shape (k, n, n).

    Scaling and squaring with the degree-13 Pade approximant, all matrices
    at once: one scaling power s from the stack's largest 1-norm, the
    approximant from batched products and one batched solve, then s
    squarings.  A non-finite entry raises PhysicsViolation.
    """
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise PhysicsViolation("non-finite matrix in the exponential")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 2.0**-s
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: near the identity, roundoff
    # then falls on the small correction, not on the entries near 1.
    r = np.linalg.solve(v - u, 2.0 * u)
    r += eye
    for _ in range(s):
        r = r @ r
    return r


def _local_maps(medium: MediumParams, drives: np.ndarray, dt_half: float) -> np.ndarray:
    """Half-step propagators of the local system, one per drive value.

    Each complex 3x3 map is returned in its real 6x6 block form, acting on
    the state's interleaved rows (Re E, Im E, Re P, Im P, Re S, Im S).
    """
    gen = np.zeros((drives.size, 3, 3), dtype=complex)
    gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling
    gen[:, 1, 1] = -(1.0 - 1j * medium.delta)
    gen[:, 1, 2] = 0.5j * drives
    gen[:, 2, 1] = 0.5j * np.conj(drives)
    gen[:, 2, 2] = -medium.gamma12
    return _real_block(expm(gen * dt_half))


def _real_block(maps: np.ndarray) -> np.ndarray:
    """Real 6x6 form of a stack of complex 3x3 maps, for interleaved rows."""
    real = np.empty(maps.shape[:-2] + (6, 6))
    real[..., 0::2, 0::2] = real[..., 1::2, 1::2] = maps.real
    real[..., 1::2, 0::2] = maps.imag
    real[..., 0::2, 1::2] = -maps.imag
    return real


def _map_blocks(medium: MediumParams, control: np.ndarray, dt_half: float):
    """The step maps of a run, built at most _MAP_BLOCK drive runs at a time.

    A drive run is a stretch of steps with one drive value; it has one half
    map R.  For each block this yields the first steps of its runs, their
    half maps and, per step, the map that takes the half-stepped state
    across the step boundary: R_s @ R_s inside run s, R_{s+1} @ R_s on its
    last step.  The last step of the whole run gets a zero map, as nothing
    reads the state it would carry.
    """
    n_steps = control.size
    bounds = np.concatenate(
        ([0], np.flatnonzero(control[1:] != control[:-1]) + 1, [n_steps])
    )
    n_runs = bounds.size - 1
    ahead = None
    for r0 in range(0, n_runs, _MAP_BLOCK):
        r1 = min(r0 + _MAP_BLOCK, n_runs)
        nb = r1 - r0
        # One expm for the block's runs and the first run of the next block,
        # which that block then reuses.
        lo = r0 if ahead is None else r0 + 1
        half = _local_maps(medium, control[bounds[lo : min(r1 + 1, n_runs)]], dt_half)
        if ahead is not None:
            half = np.concatenate((ahead[None], half))
        fused = np.zeros((2 * nb, 6, 6))
        np.matmul(half[:nb], half[:nb], out=fused[0::2])
        np.matmul(half[1:], half[:-1], out=fused[1 : 2 * half.shape[0] - 2 : 2])
        ahead = half[nb] if r1 < n_runs else None
        lengths = np.diff(bounds[r0 : r1 + 1]).tolist()
        step_maps = chain.from_iterable(
            chain(repeat(inside, length - 1), (across,))
            for inside, across, length in zip(fused[0::2], fused[1::2], lengths)
        )
        yield bounds[r0:r1], half, step_maps


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
    z = make_grid(config.n_z)
    dz = 1.0 / config.n_z
    dt = dz / C_EFF
    sqrt_c = math.sqrt(C_EFF)

    # v is the state at a step end, w the carried state half a step later;
    # each is real with rows (Re E, Im E, Re P, Im P, Re S, Im S).
    v = np.zeros((6, z.size))
    t0 = 0.0
    if initial is not None:
        if initial.z_grid.size != z.size or abs(initial.z_grid[-1] - z[-1]) > 1e-12:
            raise ConfigError("initial state grid does not match the run grid")
        for row, amp in enumerate((initial.e_field, initial.sigma13, initial.sigma12)):
            v[2 * row], v[2 * row + 1] = amp.real, amp.imag
        t0 = initial.t_now
    v_flat = v.reshape(-1)

    def views(x):
        # The buffer, its P and S rows flattened for the norms, and the E
        # cells that the advection reads and writes.
        return (x, x[2:4].reshape(-1), x[4:6].reshape(-1),
                x[0:2, -1], x[0:2, 1:], x[0:2, :-1], x[0:2, 0])

    carried, spare = views(np.empty_like(v)), views(np.empty_like(v))
    dot = np.dot
    matmul = np.matmul

    n_steps = max(1, int(math.ceil(config.t_end / dt - 1e-9)))
    times = t0 + (np.arange(n_steps) + 0.5) * dt
    control = timeline.rabi(times)
    # The emitted and injected E cells, one per step; the loop reads and
    # writes them as (Re, Im) rows of their float64 views.
    emitted = np.empty(n_steps, dtype=complex)
    emitted_rows = emitted.view(np.float64).reshape(n_steps, 2)
    emitted_flat = emitted_rows.reshape(-1)
    if pulse is not None:
        amps = pulse.amplitude(times)
        # dt |amp|^2 is also dz |amp / sqrt(C_EFF)|^2, the norm of the
        # injected cell; injected[n] is the norm injected up to step n.
        injected = np.abs(amps)
        injected **= 2
        injected *= dt
        np.cumsum(injected, out=injected)
        amps /= sqrt_c
        boundary = amps.view(np.float64).reshape(n_steps, 2)
    else:
        boundary = np.zeros((n_steps, 2))
        injected = np.zeros(n_steps)

    # A snapshot at t records the state at the step end nearest t0 + t:
    # step n ends at t0 + (n + 1) dt.  As t <= t_end, no index passes the
    # last step.
    snap_steps = {max(0, int(round(t / dt)) - 1) for t in config.snapshot_times}
    reads = set(range(0, n_steps, _CHECK_EVERY)) | snap_steps | {n_steps - 1}
    snapshots: list[FieldState] = []

    initial_norm = float(dz * dot(v_flat, v_flat))
    emitted_norm = 0.0
    emitted_upto = 0
    loss_quad = 0.0
    quad_p = dt * dz * 2.0
    quad_s = dt * dz * 2.0 * medium.gamma12

    for starts, half, step_maps in _map_blocks(medium, control, 0.5 * dt):
        if starts[0] == 0:
            matmul(half[0], v, out=carried[0])
        for n, fused in enumerate(step_maps, int(starts[0])):
            w, w_p, w_s, e_last, e_to, e_from, e_first = carried
            loss_quad += (quad_p * dot(w_p, w_p) + quad_s * dot(w_s, w_s)
                          if quad_s else quad_p * dot(w_p, w_p))
            emitted_rows[n] = e_last
            e_to[...] = e_from
            e_first[...] = boundary[n]
            if n in reads:
                # The state at the end of step n, in a scratch buffer that
                # never feeds back into the carried state.
                matmul(half[starts.searchsorted(n, "right") - 1], w, out=v)
                # The per-half-step ledger telescopes: whatever the held and
                # emitted norms do not account for of the input was lost.
                held = dz * dot(v_flat, v_flat)
                chunk = emitted_flat[2 * emitted_upto : 2 * n + 2]
                emitted_norm += dz * dot(chunk, chunk)
                emitted_upto = n + 1
                budget = initial_norm + injected[n]
                loss = float(budget - emitted_norm - held)
                if n % _CHECK_EVERY == 0:
                    if not np.isfinite(held):
                        raise PhysicsViolation(
                            f"non-finite state norm at t={times[n]:.4g}"
                        )
                    if held > budget + _RUNAWAY_TOL:
                        raise PhysicsViolation(
                            f"held norm {held:.6g} exceeds input {budget:.6g} at "
                            f"t={times[n]:.4g}"
                        )
                if n in snap_steps or n == n_steps - 1:
                    state = FieldState(
                        z, v[0] + 1j * v[1], v[4] + 1j * v[5], v[2] + 1j * v[3],
                        t0 + (n + 1) * dt, loss, emitted_norm,
                        float(injected[n]), initial_norm,
                    )
                    if n in snap_steps:
                        snapshots.append(state)
                    final = state
            matmul(fused, w, out=spare[0])
            carried, spare = spare, carried

    emitted *= sqrt_c
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
    return C_EFF * w2 / (w2 + g2)


@dataclass(frozen=True)
class StorageResult:
    """Outcome of a write stage: prepared spin wave and its efficiency."""

    state: FieldState
    efficiency: float
    trajectory: Trajectory


def store_magnon(
    medium: MediumParams,
    pulse: PulseEnvelope,
    rabi_storage: complex,
    n_z: int = 160,
) -> StorageResult:
    """Write the probe pulse into a stationary spin wave.

    The control is held at `rabi_storage` until the pulse center reaches
    the middle of the cell and then ramped off.  After a settle period of
    3 the leftover field and polarization have decayed or left; the
    returned state keeps only the spin wave and restarts the bookkeeping.
    """
    vg = v_group(medium, rabi_storage)
    if vg <= 0:
        raise ConfigError("storage drive must be nonzero")
    t_off = pulse.t_center + 0.5 / vg
    timeline = ControlTimeline(
        (ControlSegment(0.0, t_off, rabi_storage, "storage"),)
    )
    config = SimulationConfig(t_end=t_off + 3.0, n_z=n_z)
    traj = evolve(medium, timeline, config, pulse=pulse)
    fin = traj.final_state
    stored = fin.magnon_norm
    if fin.input_norm <= 0:
        raise ConfigError("storage run received no input norm")
    z = fin.z_grid
    zero = np.zeros(z.size, dtype=complex)
    state = FieldState(
        z, zero, fin.sigma12.copy(), zero.copy(),
        0.0, 0.0, 0.0, 0.0, stored,
    )
    return StorageResult(
        state=state,
        efficiency=stored / fin.input_norm,
        trajectory=traj,
    )
