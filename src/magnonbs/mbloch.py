"""Weak-probe propagation through the driven three-level medium.

The coupled amplitudes are the slowly varying probe field E(z, t), the
collective optical polarization P(z, t) and the collective spin wave S(z, t),
obeying

    (d/dt + C_EFF d/dz) E = i G P
    dP/dt = -(1 - i delta) P + i G E + (i/2) Omega(t) S
    dS/dt = -gamma12 S + (i/2) Omega(t) P

in the units of `core` (gamma31 = L = 1), with G the collective coupling
and Omega the real control Rabi frequency.  The integrator uses Strang
splitting: a half step of the local (z-independent) 3x3 linear map, an
exact one-cell advection of E, then the second half step.  The time step
is locked to dt = dz / C_EFF so the advection is an integer cell shift and
introduces no numerical dispersion.

Every run starts at t = 0.  Whatever does not depend on the state is
computed once per run, before the first step.  The control drive and the
probe pulse are sampled at all step midpoints (n + 1/2) dt in one vector
call each.  The drive splits into runs of equal values, each with one
half-step map R = exp(M dt/2) of its local generator M: a constant drive
has one run, a ramp one per step of the ramp.  The maps are built a block
of drive runs at a time, which bounds their memory, by this module's
`expm`, which exponentiates the block's stacked generators at once in
numpy, each scaled by its own power of two, so a run's maps do not depend
on how its drive runs are cut into blocks.

The state is held in real form, as a (6, n_z) array with rows (Re E, Im E,
Re P, Im P, Re S, Im S), and each complex 3x3 map as its real 6x6 block.
The loop carries the state half a step past each step start, w_n = U_n v_n,
so that the second half step of step n and the first of step n + 1 fuse
into one map F_n = U_{n+1} U_n: R_s R_s inside a run, R_{s+1} R_s where run
s ends.  A step then emits the last E cell, shifts and injects, and
applies F_n: one real matrix product.

The ledger of norms is kept where the state is read, for each member of a
batch on its own: every 256 steps, at each snapshot and at the last step.
There the state at the step end, v_{n+1} = U_n S(w_n) with S the
advection, goes to a scratch buffer that never feeds back into the carried
state, so snapshots leave the run unchanged.  Every half step is a
contraction and the advection moves one cell of |E|^2 out at z = 1 and one
in at z = 0, so the norm removed per half step telescopes into

    loss = initial + injected - emitted - held,

with the emitted norm summed from the recorded field and the injected norm
from the sampled pulse.  The ledger thus closes to roundoff by
construction, whatever the grid.  The independent check is the per-step
quadrature `loss_quad` of 2*|P|^2 + 2*gamma12*|S|^2, read off each
w_n (the advection leaves P and S unchanged): its gap to the ledger's loss,
`Trajectory.loss_gap`, is the midpoint rule's discretization error and
falls 4x per grid doubling.  At every ledger read the held norm is also
checked for non-finite values and for exceeding the input, so no run ends
or takes a snapshot unchecked.

The runs of one grid step together, whatever their media: `evolve_batch`
takes a list of runs and `evolve` is a batch of one.  Each grid's runs are
sorted longest first and stepped as one group, each with the maps of its
own medium; a finished member drops off the end of the active prefix, and
the trajectories come back in call order.  A step's cost is mostly numpy
call overhead, which the members share, so a step makes two calls
whatever the number of members.

The carried states live in a ring of slots laid out as (slot, row, member,
column): row r of every member's state in one slot is one run of floats,
member after member, each n_z + 2 columns wide.  Columns 1..n_z hold the
cells from z = 1 down to z = 0; in the E rows, column n_z + 1 holds the
cell injected at that slot's step and column 0 the cell emitted at it.  So
the E rows of every member form one contiguous block per slot, and step
base + k advects, injects and parks the emitted cell with one 1-D copy of
slot k's E block one float to the left.  (numpy copies an overlapping
range leftward front to back, up to 2.6 times as fast as rightward, which
it copies back to front; the cells run from z = 1 down for that.)  The
copy spills each row's column 0 into the injection column of the row
before it.  The step then maps slot k's cells into slot k + 1's with the
members' fused maps.

The steps run in blocks that end at the next ledger read or when the ring
is full.  Once per block, before it, one copy writes every member's
injection column in all its slots, which overwrites the spill: the pulse's
cell for a pulsed member and 0 for any other.  After it, one copy takes
the emitted cells out.  The block's last step only shifts; once the
ledger has read its state, its product goes into slot 0, where the next
block starts, so no slot is copied between blocks.  One vecdot over the P
rows of the block's slots (and one over the S rows when a member's
gamma12 is nonzero, each weighted by its own) then adds the quadrature of
the states the block carried.  So a block's own cost does not grow with
the number of members.  The injected and emitted cells pass through a
window of _CHECK_EVERY steps, which every member is read within, refilled
and emptied member by member at the ledger reads.  The P and S rows' edge
columns are never written, so they add nothing to the quadrature.

What a group holds in its ring and its members' blocks of maps is bounded
by _BUDGET floats (1.53 MB): three quarters for the ring and one for the
maps.  A wider group takes shorter blocks of steps and of drive runs, and
a grid with more runs than two ring slots fit (73 at n_z 160) steps in
several groups.  Besides, a group holds its outputs, its members' drive
runs and the windows of injected and emitted cells; nothing but the
outputs is an array of steps x members.  One array of step midpoints, the
longest run's, serves each group while it steps, and the runs of a group
with the same pulse share its samples.  A trajectory keeps neither: it
computes its step times from dt, and its caller holds the timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .core import (
    C_EFF,
    PROBABILITY_SLACK,
    ConfigError,
    ControlTimeline,
    FieldState,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    _ArrayValue,
    _require_cells,
    _require_finite,
    make_grid,
)

# The largest |Omega| dt a run may take, checked on its segments before
# any step.  The acceptance gate's largest is about 0.017; the half-step
# maps stay contractive to roundoff up to about 5e3 and drift from it
# beyond, until their exponential's roundoff breaks the ledger.
_MAX_DRIVE_STEP = 1e3
# The most steps a run may take, checked when its config is built.  A run
# holds a few arrays of one row per step (the step midpoints, the pulse
# samples, the emitted field), about 235 MB at this bound, 119 times the
# acceptance gate's longest run (35,256 steps).
_MAX_STEPS = 2**22
# Steps between ledger reads, and so between the non-finite and runaway
# checks on the held norm, away from snapshots and the last step.
_CHECK_EVERY = 256
# Steps per block of the step loop at most, which settles the loss
# quadrature, the emitted cells and the injected cells once per block: a
# narrow group's ring holds this many steps, a wider group's fewer.
_RING = 32
# The floats one step group may hold in its ring and in its members' blocks
# of maps: the ring of 4 members at n_z 240 in blocks of 32 steps, 1.53 MB.
# Three quarters bound the ring and one quarter the maps.
_BUDGET = 191_664
# The floats a drive run's maps take while a block of them is built: its
# half map and both fused maps (108) and the intermediates of `expm`.
_MAP_FLOATS = 192
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

    `n_z` counts spatial cells; the time step `dt` is 1 / (n_z * C_EFF).
    The run starts at t = 0 and takes `n_steps` steps, at least one; snapshot
    times lie in [0, t_end].  More than _MAX_STEPS steps is a ConfigError.
    """

    t_end: float
    n_z: int = 160
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _require_finite(self, "t_end")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        _require_cells(self.n_z)
        # `n_steps` rounds t_end / dt - 1e-9 up; its ceiling exceeds the
        # bound exactly when it does, and comparing the float also catches a
        # count past the float range.
        if self.t_end / self.dt - 1e-9 > _MAX_STEPS:
            raise ConfigError(
                f"a run to t_end = {self.t_end:g} at n_z = {self.n_z} takes "
                f"{self.t_end / self.dt:.3g} steps, more than {_MAX_STEPS}"
            )
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times)
        )
        _require_finite(self, "snapshot_times")
        if any(not 0.0 <= t <= self.t_end for t in self.snapshot_times):
            raise ConfigError(
                f"snapshot times must lie in [0, t_end = {self.t_end}], "
                f"got {self.snapshot_times}"
            )

    @property
    def dt(self) -> float:
        return 1.0 / self.n_z / C_EFF

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil(self.t_end / self.dt - 1e-9)))


@dataclass(frozen=True, eq=False)
class Trajectory(_ArrayValue):
    """Emitted field, final state and snapshots of one propagation run.

    `emitted` holds the outgoing amplitude at z = 1 at each step, read-only,
    in temporal normalization: dt * sum |emitted|^2 is the norm that left
    the cell.  `times`, the step midpoints (n + 1/2) dt, are computed anew
    at each read.  The norm ledger is observable at the end
    (`final_state`) and at the step end nearest each requested snapshot
    time (`snapshots`); each is a FieldState carrying the full ledger.
    `loss_quad` is the loss summed independently of that ledger, step by
    step from the decay rates.  The run's control drive is not kept: the
    caller holds its timeline.
    """

    dt: float
    emitted: np.ndarray
    final_state: FieldState
    loss_quad: float
    snapshots: tuple[FieldState, ...] = ()

    def __post_init__(self) -> None:
        self.emitted.setflags(write=False)  # the solver's own buffer, not a copy

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.emitted.size) + 0.5) * self.dt

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
    at once: each matrix scaled by 2^-s with its own s from its 1-norm, the
    approximant from batched products and one batched solve, then s
    squarings of each.  So each exponential is the one its matrix would get
    alone.  A non-finite entry, or a squaring that overflows, raises
    PhysicsViolation.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.isfinite(norm).all():
        raise PhysicsViolation("non-finite matrix in the exponential")
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13))
    a = a * np.exp2(-s)[..., None, None]
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
    # A huge generator's roundoff can grow past the float range within the
    # squarings; that is caught at the squaring where it happens.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(s.max(initial=0.0))):
            r = np.where((s > k)[..., None, None], r @ r, r)
            if not np.isfinite(r).all():
                raise PhysicsViolation("the matrix exponential overflows")
    return r


def _local_maps(medium: MediumParams, drives: np.ndarray, dt_half: float) -> np.ndarray:
    """Half-step propagators of the local system, one per drive value.

    Each complex 3x3 map is returned in its real 6x6 block form, acting on
    the state's interleaved rows (Re E, Im E, Re P, Im P, Re S, Im S).
    """
    gen = np.zeros((drives.size, 3, 3), dtype=complex)
    gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling
    gen[:, 1, 1] = -(1.0 - 1j * medium.delta)
    gen[:, 1, 2] = gen[:, 2, 1] = 0.5j * drives
    gen[:, 2, 2] = -medium.gamma12
    return _real_block(expm(gen * dt_half))


def _real_block(maps: np.ndarray) -> np.ndarray:
    """Real 6x6 form of a stack of complex 3x3 maps, for interleaved rows."""
    real = np.empty(maps.shape[:-2] + (6, 6))
    real[..., 0::2, 0::2] = real[..., 1::2, 1::2] = maps.real
    real[..., 1::2, 0::2] = maps.imag
    real[..., 0::2, 1::2] = -maps.imag
    return real


def _drive_runs(control: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the drive's runs of equal values start, and their values.

    A drive run is a stretch of steps with one drive value.  The bounds
    end with the step count, so run s covers steps bounds[s] to
    bounds[s + 1] - 1.
    """
    bounds = np.concatenate(
        ([0], np.flatnonzero(control[1:] != control[:-1]) + 1, [control.size])
    )
    return bounds, control[bounds[:-1]]


def _map_segments(medium: MediumParams, bounds: np.ndarray, drives: np.ndarray,
                  dt_half: float, block: int):
    """The step maps of one run, as stretches of steps that share a map.

    Each drive run has one half map R.  The map that takes the half-stepped
    state across a step boundary is R_s @ R_s inside run s and
    R_{s+1} @ R_s on its last step; the last step of the whole run gets a
    zero map, as nothing reads the state it would carry.  Yields, in step
    order, (stop, fused, half) for each stretch: it ends before step
    `stop`, its steps take `fused`, and `half` is its drive run's R.  The
    maps are built `block` drive runs at a time.
    """
    n_runs = drives.size
    ahead = None
    for r0 in range(0, n_runs, block):
        r1 = min(r0 + block, n_runs)
        nb = r1 - r0
        # One expm for the block's runs and the first run of the next block,
        # which that block then reuses.
        lo = r0 if ahead is None else r0 + 1
        half = _local_maps(medium, drives[lo : min(r1 + 1, n_runs)], dt_half)
        if ahead is not None:
            half = np.concatenate((ahead[None], half))
        inside = np.matmul(half[:nb], half[:nb])
        across = np.zeros((nb, 6, 6))
        np.matmul(half[1:], half[:-1], out=across[: half.shape[0] - 1])
        ahead = half[nb] if r1 < n_runs else None
        for s, (start, stop) in enumerate(zip(bounds[r0:r1].tolist(),
                                              bounds[r0 + 1 : r1 + 1].tolist())):
            if stop - start > 1:
                yield stop - 1, inside[s], half[s]
            yield stop, across[s], half[s]


def _pulse_samples(pulse: PulseEnvelope, times: np.ndarray, dt: float):
    """The cells a pulse injects at z = 0, as (Re, Im) rows, one per step,
    and the norm injected up to and including each step."""
    amps = pulse.amplitude(times)
    # dt |amp|^2 is also dz |amp / sqrt(C_EFF)|^2, the norm of the
    # injected cell.
    injected = np.abs(amps)
    injected **= 2
    injected *= dt
    np.cumsum(injected, out=injected)
    amps /= math.sqrt(C_EFF)
    return amps.view(np.float64).reshape(times.size, 2), injected


def evolve(
    medium: MediumParams,
    timeline: ControlTimeline,
    config: SimulationConfig,
    pulse: PulseEnvelope | None = None,
    initial: FieldState | None = None,
) -> Trajectory:
    """Propagate the coupled amplitudes from t = 0 to t_end.

    `pulse` injects probe amplitude at z = 0; `initial` seeds the cell with a
    prepared state at t_now = 0 (its bookkeeping is restarted: whatever norm
    it holds becomes the initial norm, prior ledger entries are discarded).
    Both may be given at once; either may be omitted.  A batch of one run.
    """
    return evolve_batch([(medium, timeline, config, pulse, initial)])[0]


def evolve_batch(
    runs: list[tuple[MediumParams, ControlTimeline, SimulationConfig,
                     PulseEnvelope | None, FieldState | None]],
) -> list[Trajectory]:
    """`[evolve(*run) for run in runs]`, the runs of each grid stepped together.

    Each run is a (medium, timeline, config, pulse, initial) tuple as
    `evolve` takes them; the media and grids may differ.  The trajectories
    come back in call order.  The runs of each `config.n_z` are stepped as
    one group, longest first, or in groups of `_group_width` if it has more.
    An empty batch, an initial state on another grid or at t_now != 0, or a
    drive with |Omega| dt above _MAX_DRIVE_STEP raise ConfigError before any
    run steps.
    """
    runs = list(runs)
    out: list = [None] * len(runs)
    for z, order in _plan_batch(runs):
        width = _group_width(z.size)
        for lo in range(0, len(order), width):
            group = order[lo : lo + width]
            for i, traj in zip(group, _step_together(z, [runs[i] for i in group])):
                out[i] = traj
    return out


def _plan_batch(runs: list) -> list[tuple[np.ndarray, list[int]]]:
    """Each grid of a batch with its runs' indices, longest first: the order
    `evolve_batch` steps them in, after its checks of every run."""
    if not runs:
        raise ConfigError("a batch needs at least one run")
    grids = {config.n_z: make_grid(config.n_z) for _, _, config, _, _ in runs}
    for _, timeline, config, _, initial in runs:
        z, dt = grids[config.n_z], config.dt
        if initial is not None:
            if initial.z_grid.size != z.size or abs(initial.z_grid[-1] - z[-1]) > 1e-12:
                raise ConfigError("initial state grid does not match the run grid")
            if initial.t_now != 0.0:
                raise ConfigError(f"a run starts at t = 0, got an initial state at "
                                  f"t_now = {initial.t_now}")
        drive = max((abs(seg.amplitude) for seg in timeline.segments), default=0.0)
        if drive * dt > _MAX_DRIVE_STEP:
            raise ConfigError(f"control drive {drive:g} is too strong for the grid: "
                              f"|Omega| dt = {drive * dt:.3g} exceeds {_MAX_DRIVE_STEP:g}")
    return [(z, sorted((i for i, run in enumerate(runs) if run[2].n_z == n_z),
                       key=lambda i: -runs[i][2].n_steps))
            for n_z, z in grids.items()]


def _group_width(n_z: int) -> int:
    """The most runs on n_z cells that `_block_sizes` fits in _BUDGET, with
    two ring slots (one step per block) and one drive run per block of
    maps; at least one."""
    return max(1, min(3 * _BUDGET // 4 // (12 * (n_z + 2)),
                      _BUDGET // 4 // (2 * _MAP_FLOATS)))


def _block_sizes(n_members: int, n_z: int) -> tuple[int, int]:
    """Steps per block of the step loop and drive runs per block of maps,
    for a group of `n_members` runs on n_z cells.

    The ring holds one slot more than a block's steps, each of
    6 (n_z + 2) floats per member, in three quarters of _BUDGET.  Each
    member's block of maps holds its drive runs and the first run of the
    next block, at _MAP_FLOATS each, in its share of the last quarter.
    """
    slots = 3 * _BUDGET // 4 // (6 * n_members * (n_z + 2))
    runs = _BUDGET // 4 // (_MAP_FLOATS * n_members) - 1
    return max(1, min(_RING, slots - 1)), max(1, runs)


def _step_together(z: np.ndarray, members: list) -> list[Trajectory]:
    """Step runs of one grid side by side; one Trajectory per member, in
    member order.

    Each member is a (medium, timeline, config, pulse, initial) run, and no
    member is longer than the one before it.
    """
    b = len(members)
    n_z = z.size
    width = n_z + 2
    dz = 1.0 / n_z
    dt = members[0][2].dt
    dot = np.dot
    copyto = np.copyto
    matmul = np.matmul
    vecdot = np.vecdot
    lengths = [config.n_steps for _, _, config, _, _ in members]
    steps, map_runs = _block_sizes(b, n_z)

    # Every member reads a prefix of the first's step midpoints, and the
    # first run of a pulse, its longest, samples it for all of them.
    times = (np.arange(lengths[0]) + 0.5) * dt
    samples: dict = {}
    for (_, _, _, pulse, _), n_i in zip(members, lengths):
        if pulse is not None and pulse not in samples:
            samples[pulse] = _pulse_samples(pulse, times[:n_i], dt)
    boundary = [samples[m[3]] if m[3] is not None else (None, None) for m in members]

    # Each member's current stretch of one map: where it ends, the half map
    # of its drive run, and its fused map in the stack the step applies.
    # The segments keep the drive's runs, not its samples at every step.
    segments = [
        _map_segments(medium, *_drive_runs(timeline.rabi(times[:n_i])), 0.5 * dt, map_runs)
        for (medium, timeline, *_), n_i in zip(members, lengths)
    ]
    stops = [0] * b
    halves = np.empty((b, 6, 6))
    fused = np.empty((b, 6, 6))
    for i in range(b):
        stops[i], fused[i], halves[i] = next(segments[i])
    change = min(stops)

    # The carried states of one block of steps, laid out as the module
    # docstring says: slot k holds w_{base+k}, member i's in states[k, i],
    # its cells from z = 1 down to z = 0.  v is a scratch state at a step
    # end, its cells from z = 0 up, and v_rev the same cells reversed.
    ring = np.zeros((steps + 1, 6, b, width))
    flat = ring.reshape(steps + 1, -1)
    states = ring[..., 1 : n_z + 1].transpose(0, 2, 1, 3)
    v = np.empty((6, n_z))
    flat_v = v.reshape(-1)
    v_rev = np.empty((6, n_z))
    initial_norm = [0.0] * b
    for i, (*_, initial) in enumerate(members):
        if initial is not None:
            for row, amp in enumerate((initial.e_field, initial.sigma13, initial.sigma12)):
                v[2 * row], v[2 * row + 1] = amp.real, amp.imag
            initial_norm[i] = float(dz * dot(flat_v, flat_v))
            copyto(v_rev, v[:, ::-1])
            matmul(halves[i], v_rev, out=states[0, i])

    # The ledger is read every _CHECK_EVERY steps, at each snapshot and at
    # the last step.  A snapshot at t records the state at the step end
    # nearest t: step n ends at (n + 1) dt.  As t <= t_end, no index passes
    # the last step.
    snap_steps = [{max(0, int(round(t / dt)) - 1) for t in m[2].snapshot_times}
                  for m in members]
    readers: dict[int, list[int]] = {}
    for i, n_i in enumerate(lengths):
        for n in sorted(set(range(0, n_i, _CHECK_EVERY)) | snap_steps[i] | {n_i - 1}):
            readers.setdefault(n, []).append(i)

    # The window: the injected and the emitted cells of every member at
    # steps w0 .. w0 + _CHECK_EVERY - 1, which a block reads and writes in
    # one call each.  Every member still stepping is read at each multiple
    # of _CHECK_EVERY, so no block crosses a window's end, and each read
    # moves the member's emitted cells out.  A member without a pulse
    # injects the zeros it is never given.
    inflow = np.zeros((_CHECK_EVERY, 2, b))
    outflow = np.empty((b, _CHECK_EVERY, 2))
    quad_p = dt * dz * 2.0
    quad_s = quad_p * np.array([m[0].gamma12 for m in members])
    loss_quad = np.zeros(b)
    emitted = [np.empty(n_i, dtype=complex) for n_i in lengths]
    emitted_rows = [e.view(np.float64).reshape(-1, 2) for e in emitted]
    emitted_norm = [0.0] * b
    emitted_upto = [0] * b
    snapshots: list[list[FieldState]] = [[] for _ in range(b)]
    finals: list = [None] * b

    def fill(w0: int) -> None:
        for i, (rows, _) in enumerate(boundary):
            if rows is not None and lengths[i] > w0:
                cut = rows[w0 : w0 + _CHECK_EVERY]
                inflow[: len(cut), :, i] = cut

    def carry(m: int) -> None:
        # The last block's final product goes to slot 0, where the next
        # block starts, once nothing reads its shifted state (through slot
        # 1 when that state is slot 0's own, as numpy would copy it); then
        # slots 0 .. m - 1 hold the states the block carried, w_{base+1} ..
        # w_{base+m}, and their loss quadrature is added.
        if m > 1:
            matmul(fused_a, states[m - 1, :a], out=states[0, :a])
        else:
            matmul(fused_a, states[0, :a], out=states[1, :a])
            copyto(ring[0], ring[1])
        loss_quad[:a] += quad_p * vecdot(p_rows[:m], p_rows[:m]).sum(axis=(0, 1))
        if lossy:
            loss_quad[:a] += quad_s_a * vecdot(s_rows[:m], s_rows[:m]).sum(axis=(0, 1))

    # The quadrature of w_0; each block adds those of the states it carries.
    loss_quad += quad_p * vecdot(ring[0, 2:4], ring[0, 2:4]).sum(axis=0)
    loss_quad += quad_s * vecdot(ring[0, 4:6], ring[0, 4:6]).sum(axis=0)
    a = 0  # members the views below cover; 0 before any step
    active = b  # members still stepping, the longest first
    base = m = 0  # the first step of the block, and the last block's length
    w0 = 0  # the window's first step
    fill(w0)
    for r in sorted(readers):
        # Blocks of at most `steps` steps; the last one ends at step r.
        while base <= r:
            if m:
                carry(m)
            while lengths[active - 1] <= base:
                active -= 1
            if active != a:
                a = active
                fused_a = fused[:a]
                quad_s_a = quad_s[:a]
                lossy = quad_s_a.any()
                p_rows = ring[:, 2:4, :a]
                s_rows = ring[:, 4:6, :a]
                # Per slot: where the E shift writes, what it reads (the E
                # rows of every member up to the last active one's Im E
                # row, one float to the left), and the product's input and
                # output cells.
                e_end = (b + a) * width
                slots = [(flat[k, : e_end - 1], flat[k, 1:e_end],
                          states[k, :a], states[k + 1, :a]) for k in range(steps)]
            end = min(r + 1, base + steps)
            m = end - base
            ring[:m, 0:2, :a, n_z + 1] = inflow[base - w0 : end - w0, :, :a]

            # In stretches over which no member's map changes.  The last
            # step only shifts: `carry` makes its product.
            n = base
            while True:
                if n == change:
                    for i in range(a):
                        if stops[i] == n:
                            stops[i], fused[i], halves[i] = next(segments[i])
                    change = min(stops[:a])
                if n == end - 1:
                    break
                stop = min(end - 1, change)
                for e_to, e_from, w, w_next in slots[n - base : stop - base]:
                    copyto(e_to, e_from)
                    matmul(fused_a, w, out=w_next)
                n = stop
            copyto(*slots[m - 1][:2])
            outflow[:a, base - w0 : end - w0] = ring[:m, 0:2, :a, 0].transpose(2, 0, 1)
            base = end

        shifted = states[m - 1]  # step r's state, advected and injected
        for i in readers[r]:
            # The state at the end of step r, from its shifted slot, in a
            # scratch buffer that never feeds back into the carried state.
            matmul(halves[i], shifted[i], out=v_rev)
            copyto(v, v_rev[:, ::-1])
            # The per-half-step ledger telescopes: whatever the held and
            # emitted norms do not account for of the input was lost.
            held = dz * dot(flat_v, flat_v)
            chunk = emitted_rows[i][emitted_upto[i] : r + 1]
            chunk[...] = outflow[i, emitted_upto[i] - w0 : r + 1 - w0]
            chunk = chunk.reshape(-1)
            emitted_norm[i] += dz * dot(chunk, chunk)
            emitted_upto[i] = r + 1
            injected = boundary[i][1]
            inflow_norm = float(injected[r]) if injected is not None else 0.0
            budget = initial_norm[i] + inflow_norm
            loss = float(budget - emitted_norm[i] - held)
            if not np.isfinite(held):
                raise PhysicsViolation(f"non-finite state norm at t={times[r]:.4g}")
            if held > budget + PROBABILITY_SLACK:
                raise PhysicsViolation(
                    f"held norm {held:.6g} exceeds input {budget:.6g} at "
                    f"t={times[r]:.4g}"
                )
            if r in snap_steps[i] or r == lengths[i] - 1:
                state = FieldState(
                    z, v[0] + 1j * v[1], v[4] + 1j * v[5], v[2] + 1j * v[3],
                    (r + 1) * dt, loss, emitted_norm[i], inflow_norm, initial_norm[i],
                )
                if r in snap_steps[i]:
                    snapshots[i].append(state)
                finals[i] = state
        if r % _CHECK_EVERY == 0:
            w0 = r + 1
            fill(w0)
    carry(m)  # the quadrature of the last block; its product is a zero map's

    sqrt_c = math.sqrt(C_EFF)
    trajectories = []
    for i in range(b):
        emitted[i] *= sqrt_c
        trajectories.append(Trajectory(
            dt=dt,
            emitted=emitted[i],
            final_state=finals[i],
            loss_quad=float(loss_quad[i]),
            snapshots=tuple(snapshots[i]),
        ))
    return trajectories

