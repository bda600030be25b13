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
has one run, a ramp one per step of the ramp.  The maps are built at most
_MAP_BLOCK runs at a time, which bounds their memory, by this module's
`expm`, which exponentiates the block's stacked generators at once in
numpy.

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
takes a list of runs and `evolve` is a batch of one.  Each grid's members
are sorted longest first and stepped at most _BATCH at a time, each with
the maps of its own medium; a finished member drops off the end of the
active prefix, and the trajectories come back in call order.  A step's
cost is mostly numpy call overhead, which the members share, so a step
makes two calls whatever the number of members.
The carried states live in a ring of _RING + 1 slots, each a
(members, 6, n_z + 2) array: columns 1..n_z hold the cells, and in the E
rows column 0 holds the cell injected at that step and column n_z + 1 the
cell emitted at it.  Step base + k shifts slot k's E rows, columns 0..n_z,
one column right, which advects, injects and parks the emitted cell in one
copy, and then maps slot k's cells into slot k + 1's with the members'
fused maps.  The steps run in blocks of at most _RING that end at the next
ledger read.  Once per block, before it, the pulsed members' injected
cells are written into column 0 of its slots; after it, one vecdot over
the P rows of all its slots (and one over the S rows when a member's
gamma12 is nonzero, each weighted by its own) adds the block's loss
quadrature, the emitted cells are copied out of column n_z + 1, and the
last slot carries on as the next block's first.  The P and S rows' edge
columns are never written, so they add nothing to the quadrature.  What
a batch holds while it steps is thus bounded: one block of maps per member
and the ring, (_RING + 1) * members * 6 * (n_z + 2) floats (1.5 MB for 4
members at n_z 240), never an array of steps x members.  One array of step
midpoints, the longest run's, serves each grid's runs while they step, and
the runs of a grid with the same pulse share its samples.  A trajectory
keeps neither: it computes its step times from dt, and its caller holds
the timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    C_EFF,
    PROBABILITY_SLACK,
    ConfigError,
    ControlSegment,
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
# Drive runs whose maps are built at once, by one `expm` of their stacked
# generators: this bounds the memory a drive that changes every step (a long
# ramp) can take, while every run of the acceptance gate (at most about 600
# drive runs) is one block.
_MAP_BLOCK = 1024
# Steps per block of the step loop, which holds this many carried states
# per member and settles the loss quadrature, the emitted cells and the
# injected cells once per block.
_RING = 32
# Runs stepped side by side at most.  Each member holds its own block of
# maps and its own outputs while it steps, so this bounds what a batch
# holds at once; a wider batch is stepped in groups, longest runs first.
_BATCH = 4
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
    at once: one scaling power s from the stack's largest 1-norm, the
    approximant from batched products and one batched solve, then s
    squarings.  A non-finite entry, or a squaring that overflows, raises
    PhysicsViolation.
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
    # A huge generator's roundoff can grow past the float range within the
    # squarings; that is caught at the squaring where it happens.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
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
                  dt_half: float):
    """The step maps of one run, as stretches of steps that share a map.

    Each drive run has one half map R.  The map that takes the half-stepped
    state across a step boundary is R_s @ R_s inside run s and
    R_{s+1} @ R_s on its last step; the last step of the whole run gets a
    zero map, as nothing reads the state it would carry.  Yields, in step
    order, (stop, fused, half) for each stretch: it ends before step
    `stop`, its steps take `fused`, and `half` is its drive run's R.  The
    maps are built at most _MAP_BLOCK drive runs at a time.
    """
    n_runs = drives.size
    ahead = None
    for r0 in range(0, n_runs, _MAP_BLOCK):
        r1 = min(r0 + _MAP_BLOCK, n_runs)
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
    come back in call order.  The runs of each `config.n_z` are stepped
    longest first, at most _BATCH at a time.  An empty batch, an initial
    state on another grid or at t_now != 0, or a drive with |Omega| dt
    above _MAX_DRIVE_STEP raise ConfigError before any run steps.
    """
    runs = list(runs)
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

    out: list = [None] * len(runs)
    for n_z, z in grids.items():
        # Every run of the grid reads a prefix of its longest run's step
        # midpoints, and the first run of a pulse, its longest, samples it
        # for all of them.
        lengths = {i: run[2].n_steps for i, run in enumerate(runs) if run[2].n_z == n_z}
        order = sorted(lengths, key=lambda i: -lengths[i])
        dt = runs[order[0]][2].dt
        times = (np.arange(lengths[order[0]]) + 0.5) * dt
        samples: dict = {}
        for i in order:
            pulse = runs[i][3]
            if pulse is not None and pulse not in samples:
                samples[pulse] = _pulse_samples(pulse, times[: lengths[i]], dt)

        for lo in range(0, len(order), _BATCH):
            group = order[lo : lo + _BATCH]
            members = [
                (*runs[i][:3], runs[i][4], times[: lengths[i]],
                 *samples.get(runs[i][3], (None, None)))
                for i in group
            ]
            for i, traj in zip(group, _step_together(z, dt, members)):
                out[i] = traj
    return out


def _step_together(z: np.ndarray, dt: float, members: list) -> list[Trajectory]:
    """Step runs side by side; one Trajectory per member, in member order.

    Each member is (medium, timeline, config, initial, times, boundary,
    injected), the last two None for a run without a pulse, and no member
    is longer than the one before it.
    """
    b = len(members)
    n_z = z.size
    dz = 1.0 / n_z
    dot = np.dot
    copyto = np.copyto
    matmul = np.matmul
    vecdot = np.vecdot
    lengths = [m[4].size for m in members]

    # v holds states at a step end; each member's is real with rows
    # (Re E, Im E, Re P, Im P, Re S, Im S).
    v = np.zeros((b, 6, n_z))
    for v_i, (_, _, _, initial, *_) in zip(v, members):
        if initial is not None:
            for row, amp in enumerate((initial.e_field, initial.sigma13, initial.sigma12)):
                v_i[2 * row], v_i[2 * row + 1] = amp.real, amp.imag
    initial_norm = [float(dz * dot(v_i.reshape(-1), v_i.reshape(-1))) for v_i in v]

    # Each member's current stretch of one map: where it ends, the half map
    # of its drive run, and its fused map in the stack the step applies.
    # The segments keep the drive's runs, not its samples at every step.
    segments = [
        _map_segments(medium, *_drive_runs(timeline.rabi(times)), 0.5 * dt)
        for medium, timeline, _, _, times, _, _ in members
    ]
    stops = [0] * b
    halves: list = [None] * b
    fused = np.empty((b, 6, 6))
    for i in range(b):
        stops[i], fused[i], halves[i] = next(segments[i])

    # The carried states of one block of steps, laid out as the module
    # docstring says: slot k holds w_{base+k} in columns 1..n_z.
    ring = np.zeros((_RING + 1, b, 6, n_z + 2))
    cells = ring[..., 1 : n_z + 1]
    matmul(np.stack(halves), v, out=cells[0])

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

    quad_p = dt * dz * 2.0
    quad_s = quad_p * np.array([m[0].gamma12 for m in members])
    loss_quad = np.zeros(b)
    emitted = [np.empty(n_i, dtype=complex) for n_i in lengths]
    emitted_rows = [e.view(np.float64).reshape(-1, 2) for e in emitted]
    emitted_norm = [0.0] * b
    emitted_upto = [0] * b
    snapshots: list[list[FieldState]] = [[] for _ in range(b)]
    finals: list = [None] * b

    a = 0  # members still stepping, the longest first; 0 before any step
    base = m = 0  # the first step of the block, and the last block's length
    for r in sorted(readers):
        # Blocks of at most _RING steps; the last one ends at step r.
        while base <= r:
            # The last block's final slot carries on as this block's first.
            ring[0, :a] = ring[m, :a]
            active = sum(n_i > base for n_i in lengths)
            if active != a:
                a = active
                fused_a = fused[:a]
                quad_s_a = quad_s[:a]
                lossy = quad_s_a.any()
                p_rows = ring[:, :a, 2:4].reshape(_RING + 1, a, -1)
                s_rows = ring[:, :a, 4:6].reshape(_RING + 1, a, -1)
                # Per slot: where the E shift writes, what it reads, and the
                # product's input and output cells.
                slots = [(ring[k, :a, 0:2, 1:], ring[k, :a, 0:2, :-1],
                          cells[k, :a], cells[k + 1, :a]) for k in range(_RING)]
            end = min(r + 1, base + _RING)
            m = end - base
            for i in range(a):
                if members[i][5] is not None:
                    ring[:m, i, 0:2, 0] = members[i][5][base:end]

            # In stretches over which no member's map changes.
            n = base
            while n < end:
                for i in range(a):
                    if stops[i] == n:
                        stops[i], fused[i], halves[i] = next(segments[i])
                stop = min(end, *stops[:a])
                for e_to, e_from, w, w_next in slots[n - base : stop - base]:
                    copyto(e_to, e_from)
                    matmul(fused_a, w, out=w_next)
                n = stop

            loss_quad[:a] += quad_p * vecdot(p_rows[:m], p_rows[:m]).sum(axis=0)
            if lossy:
                loss_quad[:a] += quad_s_a * vecdot(s_rows[:m], s_rows[:m]).sum(axis=0)
            for i in range(a):
                emitted_rows[i][base:end] = ring[:m, i, 0:2, n_z + 1]
            base = end

        shifted = cells[m - 1]  # step r's state, advected and injected
        for i in readers[r]:
            times, injected = members[i][4], members[i][6]
            # The state at the end of step r, from its shifted slot, in a
            # scratch buffer that never feeds back into the carried state.
            v_i = v[i]
            matmul(halves[i], shifted[i], out=v_i)
            # The per-half-step ledger telescopes: whatever the held and
            # emitted norms do not account for of the input was lost.
            flat = v_i.reshape(-1)
            held = dz * dot(flat, flat)
            chunk = emitted_rows[i][emitted_upto[i] : r + 1].reshape(-1)
            emitted_norm[i] += dz * dot(chunk, chunk)
            emitted_upto[i] = r + 1
            budget = initial_norm[i] + (injected[r] if injected is not None else 0.0)
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
                    z, v_i[0] + 1j * v_i[1], v_i[4] + 1j * v_i[5], v_i[2] + 1j * v_i[3],
                    (r + 1) * dt, loss, emitted_norm[i],
                    float(injected[r]) if injected is not None else 0.0,
                    initial_norm[i],
                )
                if r in snap_steps[i]:
                    snapshots[i].append(state)
                finals[i] = state

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


def store_magnon(
    medium: MediumParams,
    pulse: PulseEnvelope,
    rabi_storage: float,
    n_z: int = 160,
) -> StorageResult:
    """Write the probe pulse into a stationary spin wave.

    The control is held at `rabi_storage` until the pulse center reaches
    the middle of the cell and then ramped off.  After a settle period of
    3 the leftover field and polarization have decayed or left; the
    returned state keeps only the spin wave and restarts the bookkeeping.
    """
    (stored,) = _store_batch(medium, pulse, (rabi_storage,), n_z)
    return stored


def _store_batch(
    medium: MediumParams,
    pulse: PulseEnvelope,
    rabis: tuple[float, ...],
    n_z: int,
) -> list[StorageResult]:
    """`store_magnon` at each storage drive in `rabis`, as one batch.

    Every drive is checked before the first step.
    """
    runs = []
    for rabi in rabis:
        vg = v_group(medium, rabi)
        if not 0 < vg < math.inf:  # NaN fails both bounds
            raise ConfigError("storage drive must be nonzero and finite")
        t_off = pulse.t_center + 0.5 / vg
        timeline = ControlTimeline((ControlSegment(0.0, t_off, rabi, "storage"),))
        runs.append((medium, timeline, SimulationConfig(t_end=t_off + 3.0, n_z=n_z), pulse, None))
    results = []
    for traj in evolve_batch(runs):
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
        results.append(StorageResult(
            state=state,
            efficiency=stored / fin.input_norm,
            trajectory=traj,
        ))
    return results
