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

Every run starts at t = 0 and plans its maps where it steps.  Its
control drive is sampled at the step midpoints (n + 1/2) dt, one window of
_DRIVE_WINDOW steps per vector call as the steps reach it, and split into
runs of equal values, each with one half-step map R = exp(M dt/2) of its
local generator M: a constant drive has one run, a ramp one per step of
the ramp, and a run that goes on across a window's end stays one run.  So
planning holds no array as long as the run.  The maps are built a block
of drive runs at a time, as the steps reach them, which bounds their
memory.  Each block's are built with the next block's first, whose map
the block's last step needs, in one call of this module's `expm`, which
exponentiates the stacked generators at once in numpy, each scaled by its
own power of two.  So that first map, built again by the next block, is
the same bit for bit, and a run's maps do not depend on how its drive
runs are cut into blocks.  The probe pulse is sampled one window of steps
at a time (see below).

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
state.  Every half step is a contraction and the advection moves one cell
of |E|^2 out at z = 1 and one in at z = 0, so the norm removed per half
step telescopes into

    loss = initial + injected - emitted - held,

with the emitted norm summed from the emitted cells, whether or not the
run records them, and the injected norm from the pulse's samples.  The
ledger adds the emitted cells of a window of 256 steps once, at the read
that closes the window or at the run's last step; a snapshot checks the
ledger with the window's cells so far and adds nothing to it.  So
snapshot times change none of a run's other outputs but `loss_quad`,
whose sums follow the blocks of steps that the reads end (see below).
The ledger is the run's: the last read's initial, injected and emitted
norms go to the `Trajectory`, whose `loss_accum` derives the loss from
them and the norm the final state holds, so the ledger closes by
construction, whatever the grid; a snapshot, like a prepared state, is
its amplitudes alone.  The independent check is the per-step quadrature
`loss_quad` of 2*|P|^2 + 2*gamma12*|S|^2, read off each w_n (the
advection leaves P and S unchanged): its gap to the ledger's loss,
`Trajectory.loss_gap`, is the midpoint rule's discretization error and
falls 4x per grid doubling.  At every ledger read the held norm is
checked for non-finite values, and the held plus the emitted norm for
exceeding the input: a step only loses norm, so a gain shows at the
first read after it passes roundoff, whether its norm is still in the
cell or has left it, and no run ends or takes a snapshot unchecked.

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
window of _CHECK_EVERY steps, at whose end every member still stepping is
read: the window is emptied there member by member, and refilled.  Each
distinct pulse is sampled anew for each window, once for every member it
feeds, its injected norm summed on from the window before.  The P and S
rows' edge columns are never written, so they add nothing to the
quadrature.

What a group holds in its ring and its members' blocks of maps is bounded
by _BUDGET floats (1.53 MB): three quarters for the ring and one for the
maps.  A wider group takes shorter blocks of steps and of drive runs, and
a grid with more runs than two ring slots fit (73 at n_z 160) steps in
several groups.  Besides, a group holds its outputs, its ledger reads (one
every _CHECK_EVERY steps), the drive runs each member has found and not
yet built (at most a window's and a block's) and the windows of injected
and emitted cells and of pulse samples; of the outputs only the emitted
fields, of the members that record them, are arrays of steps x members.
No step midpoints are kept: the drive's and the pulse's windows and the
checks compute their midpoints from dt, and so does a trajectory, whose
caller holds the timeline.
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
# The largest G dt and |delta| dt a run may take, checked with the drive.
# The gate's largest are 0.083 and 0.010.  Up to 1e2, with the drive at
# its bound, a half-step map's largest singular value exceeds 1 by at most
# 13 ulps; it reaches the 100 ulps of the drive's maps at 5e3 between 1e3
# and 2e3, and past 1e5 a detuned run's ledger gains norm.
_MAX_MEDIUM_STEP = 1e2
# Steps whose drive is sampled in one call while a run's drive runs are
# found: 32 kB of samples, whatever the run's length.
_DRIVE_WINDOW = 4096
# The most steps a run may take, checked when its config is built: 228
# times the acceptance gate's longest run (18,384 steps).  A run holds its
# emitted field if it records it, 16 B per step (67 MB at this bound), and
# its ledger reads, under 1 B per step; planning its maps holds one window
# of drive samples, whatever its length.
_MAX_STEPS = 2**22
# Steps between ledger reads, and so between the checks on the held and
# the emitted norm, away from snapshots and the last step.
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
    `record_emission` keeps the field emitted at each step in the
    trajectory; without it the ledger still counts the emitted norm.
    """

    t_end: float
    n_z: int = 160
    snapshot_times: tuple[float, ...] = ()
    record_emission: bool = True

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
    """Emitted field, final state, snapshots and norm ledger of one run.

    `emitted` holds the outgoing amplitude at z = 1 at each step, read-only,
    in temporal normalization: dt * sum |emitted|^2 is the norm that left
    the cell.  `times`, the step midpoints (n + 1/2) dt, are computed anew
    at each read.  A run whose config does not record emission keeps both
    empty; its `emitted_norm` is the same, bit for bit.  The ledger is the
    run's, read at its last step: `initial_norm` is the norm the initial
    state held, `injected_norm` the pulse's and `emitted_norm` what left
    at z = 1.  With the norm `final_state` holds, it defines `loss_accum`,
    whatever of the input was neither emitted nor is held.  `snapshots` are
    the states at the step end nearest each requested snapshot time.
    `loss_quad` is the loss summed independently of that ledger, step by
    step from the decay rates.  The run's control drive is not kept: the
    caller holds its timeline.
    """

    dt: float
    emitted: np.ndarray
    final_state: FieldState
    loss_quad: float
    initial_norm: float
    injected_norm: float
    emitted_norm: float
    snapshots: tuple[FieldState, ...] = ()

    def __post_init__(self) -> None:
        self.emitted.setflags(write=False)  # the solver's own buffer, not a copy

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.emitted.size) + 0.5) * self.dt

    @property
    def input_norm(self) -> float:
        return self.injected_norm + self.initial_norm

    @property
    def loss_accum(self) -> float:
        fin = self.final_state
        held = fin.photon_norm + fin.magnon_norm + fin.excited_norm
        return self.input_norm - self.emitted_norm - held

    @property
    def loss_gap(self) -> float:
        """|loss_quad - ledger loss| / ledger loss, the independent loss check.

        Infinite when the ledger records no loss, as no relative gap exists.
        """
        return abs(self.signed_loss_gap)

    @property
    def signed_loss_gap(self) -> float:
        """(loss_quad - ledger loss) / ledger loss: `loss_gap` with its sign,
        which falls with the grid at the scheme's order."""
        loss = self.loss_accum
        return (self.loss_quad - loss) / loss if loss > 0 else math.inf


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


def _drive_runs(timeline: ControlTimeline, n0: int, n1: int, dt: float,
                starts: np.ndarray, drives: np.ndarray):
    """`starts` and `drives`, the first steps and drives of the drive runs
    found before step n0, with those of the runs that start at steps n0 ..
    n1 - 1 appended.

    The drive is sampled at those steps' midpoints (n + 1/2) dt.  The run
    that goes on across step n0, whose drive is drives[-1], starts nothing
    there, so windows of steps give the runs of the drive sampled at every
    step at once.
    """
    control = timeline.rabi((np.arange(n0, n1) + 0.5) * dt)
    new = np.empty(control.size, dtype=bool)
    new[0] = n0 == 0 or control[0] != drives[-1]
    np.not_equal(control[1:], control[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return np.concatenate((starts, first + n0)), np.concatenate((drives, control[first]))


def _map_segments(medium: MediumParams, timeline: ControlTimeline, n_steps: int,
                  dt: float, block: int):
    """The step maps of one run, as stretches of steps that share a map.

    The drive, sampled at the step midpoints (n + 1/2) dt, splits into drive
    runs of equal values, each with one half map R.  The map that takes the
    half-stepped state across a step boundary is R_s @ R_s inside run s and
    R_{s+1} @ R_s on its last step; the last step of the whole run gets a
    zero map, as nothing reads the state it would carry.  Yields, in step
    order, (stop, fused, half) for each stretch: it ends before step
    `stop`, its steps take `fused`, and `half` is its drive run's R.  The
    maps are built `block` drive runs at a time, each block's in one `expm`
    call with the next block's first run, whose R its last step needs.  The
    drive runs are found as the blocks need them, _DRIVE_WINDOW steps at a
    time, so nothing as long as the run is held.
    """
    # The drive runs found and not yet built: where each starts, its drive.
    # While steps are left to sample, the last of them is still going on.
    starts = np.empty(0, dtype=np.intp)
    drives = np.empty(0)
    n0 = 0  # the first step not yet sampled
    while n0 < n_steps or starts.size:
        # A block's runs end where the run after them starts, or at the
        # last step once every step is sampled.
        while n0 < n_steps and starts.size <= block:
            n1 = min(n0 + _DRIVE_WINDOW, n_steps)
            starts, drives = _drive_runs(timeline, n0, n1, dt, starts, drives)
            n0 = n1
        nb = min(block, starts.size)
        half = _local_maps(medium, drives[: nb + 1], 0.5 * dt)
        inside = np.matmul(half[:nb], half[:nb])
        across = np.zeros((nb, 6, 6))
        np.matmul(half[1:], half[:-1], out=across[: half.shape[0] - 1])
        stops = starts[1 : nb + 1].tolist()
        stops += [n_steps] * (nb - len(stops))
        for s, (start, stop) in enumerate(zip(starts[:nb].tolist(), stops)):
            if stop - start > 1:
                yield stop - 1, inside[s], half[s]
            yield stop, across[s], half[s]
        starts, drives = starts[nb:], drives[nb:]


def _pulse_window(pulse: PulseEnvelope, n0: int, n1: int, dt: float, before: float):
    """The cells a pulse injects at z = 0 at steps n0 .. n1 - 1, as (Re, Im)
    rows, one per step, and the norm injected up to and including each
    step, `before` being what it injected before them."""
    amps = pulse.amplitude((np.arange(n0, n1) + 0.5) * dt)
    # dt |amp|^2 is also dz |amp / sqrt(C_EFF)|^2, the norm of the
    # injected cell.
    injected = np.abs(amps)
    injected **= 2
    injected *= dt
    injected[0] += before
    np.cumsum(injected, out=injected)
    amps /= math.sqrt(C_EFF)
    return amps.view(np.float64).reshape(n1 - n0, 2), injected


def evolve(
    medium: MediumParams,
    timeline: ControlTimeline,
    config: SimulationConfig,
    pulse: PulseEnvelope | None = None,
    initial: FieldState | None = None,
) -> Trajectory:
    """Propagate the coupled amplitudes from t = 0 to t_end.

    `pulse` injects probe amplitude at z = 0; `initial` seeds the cell with a
    prepared state at t_now = 0, and the held norm of `initial` is the run's
    initial norm.  Both may be given at once; either may be omitted.  A
    batch of one run.
    """
    return evolve_batch([(medium, timeline, config, pulse, initial)])[0]


def evolve_batch(
    runs: list[tuple[MediumParams, ControlTimeline, SimulationConfig,
                     PulseEnvelope | None, FieldState | None]],
) -> list[Trajectory]:
    """`[evolve(*run) for run in runs]`, the runs of each grid stepped together.

    Each run is a (medium, timeline, config, pulse, initial) tuple as
    `evolve` takes them; the media and grids may differ.  The trajectories
    come back in call order.  Every run is checked first: an empty batch, an
    initial state on another grid or at t_now != 0, or a drive or medium past
    the step bound (`_require_step_bound`) raise ConfigError before any run
    steps.
    Then the runs of each `config.n_z` are stepped as one group, longest
    first, or in groups of `_group_width` if it has more.
    """
    runs = list(runs)
    if not runs:
        raise ConfigError("a batch needs at least one run")
    grids = {config.n_z: make_grid(config.n_z) for _, _, config, _, _ in runs}
    for medium, timeline, config, _, initial in runs:
        z, dt = grids[config.n_z], config.dt
        if initial is not None:
            if initial.z_grid.size != z.size or abs(initial.z_grid[-1] - z[-1]) > 1e-12:
                raise ConfigError("initial state grid does not match the run grid")
            if initial.t_now != 0.0:
                raise ConfigError(f"a run starts at t = 0, got an initial state at "
                                  f"t_now = {initial.t_now}")
        drive = max((abs(seg.amplitude) for seg in timeline.segments), default=0.0)
        _require_step_bound(medium, drive, dt)
    out: list = [None] * len(runs)
    for n_z, z in grids.items():
        order = sorted((i for i, run in enumerate(runs) if run[2].n_z == n_z),
                       key=lambda i: -runs[i][2].n_steps)
        width = _group_width(n_z)
        for lo in range(0, len(order), width):
            group = order[lo : lo + width]
            for i, traj in zip(group, _step_together(z, [runs[i] for i in group])):
                out[i] = traj
    return out


def _require_step_bound(medium: MediumParams, drive: float, dt: float) -> None:
    """Raise ConfigError unless a step of `dt` keeps the local generator's
    half-step maps contractive to roundoff: |Omega| dt at most
    _MAX_DRIVE_STEP for the largest drive `drive`, and G dt and |delta| dt
    at most _MAX_MEDIUM_STEP."""
    if drive * dt > _MAX_DRIVE_STEP:
        raise ConfigError(f"control drive {drive:g} is too strong for the grid: "
                          f"|Omega| dt = {drive * dt:.3g} exceeds {_MAX_DRIVE_STEP:g}")
    for name, symbol, rate in (("coupling", "G", medium.coupling),
                               ("detuning", "|delta|", abs(medium.delta))):
        if rate * dt > _MAX_MEDIUM_STEP:
            raise ConfigError(f"medium {name} {symbol} = {rate:.3g} is too large for "
                              f"the grid: {symbol} dt = {rate * dt:.3g} exceeds "
                              f"{_MAX_MEDIUM_STEP:g}")


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

    # Each pulse is sampled once for every member it feeds, as far as the
    # first of them, its longest, steps.
    pulses = [pulse for _, _, _, pulse, _ in members]
    pulse_ends: dict = {}
    for pulse, n_i in zip(pulses, lengths):
        if pulse is not None:
            pulse_ends.setdefault(pulse, n_i)
    windows: dict = {}  # each pulse's cells and injected norms in the window

    # Each member's current stretch of one map: where it ends, the half map
    # of its drive run, and its fused map in the stack the step applies.
    segments = [
        _map_segments(medium, timeline, n_i, dt, map_runs)
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
    # steps w0 up to the next multiple of _CHECK_EVERY, which a block reads
    # and writes in one call each.  Every member still stepping is read at
    # each multiple of _CHECK_EVERY, so no block crosses a window's end.
    # The read that closes a window, or ends a member, adds the member's
    # emitted cells in it to its ledger and, when it records them, copies
    # them out.  A member without a pulse injects the zeros it is never
    # given.
    inflow = np.zeros((_CHECK_EVERY, 2, b))
    outflow = np.empty((b, _CHECK_EVERY, 2))
    quad_p = dt * dz * 2.0
    quad_s = quad_p * np.array([m[0].gamma12 for m in members])
    loss_quad = np.zeros(b)
    emitted = [np.empty(n_i if config.record_emission else 0, dtype=complex)
               for (_, _, config, _, _), n_i in zip(members, lengths)]
    emitted_rows = [e.view(np.float64).reshape(-1, 2) for e in emitted]
    emitted_norm = [0.0] * b
    snapshots: list[list[FieldState]] = [[] for _ in range(b)]
    # Each member's (final state, initial, injected, emitted norm).
    finals: list = [None] * b

    def fill(w0: int, w1: int) -> None:
        # Each pulse's cells at steps w0 .. w1 - 1, cut at its longest run's
        # end, and the norm it has injected up to each: the sum goes on from
        # the window before, which ended at step w0 - 1, so the windows
        # make one cumsum over the run.
        for pulse, n_p in pulse_ends.items():
            if n_p > w0:
                before = windows[pulse][1][-1] if w0 else 0.0
                windows[pulse] = _pulse_window(pulse, w0, min(w1, n_p), dt, before)
        for i, pulse in enumerate(pulses):
            if pulse is not None and lengths[i] > w0:
                rows = windows[pulse][0]
                inflow[: len(rows), :, i] = rows

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
    fill(w0, 1)
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
        closes = r % _CHECK_EVERY == 0
        for i in readers[r]:
            # The state at the end of step r, from its shifted slot, in a
            # scratch buffer that never feeds back into the carried state.
            matmul(halves[i], shifted[i], out=v_rev)
            copyto(v, v_rev[:, ::-1])
            held = dz * dot(flat_v, flat_v)
            # A snapshot reads the ledger with the window's cells so far and
            # adds nothing to it, so snapshots leave the ledger unchanged.
            window = outflow[i, : r + 1 - w0]
            cells = window.reshape(-1)
            emitted_i = emitted_norm[i] + dz * dot(cells, cells)
            last = r == lengths[i] - 1
            if closes or last:
                emitted_norm[i] = emitted_i
                if emitted[i].size:
                    emitted_rows[i][w0 : r + 1] = window
            pulse = pulses[i]
            inflow_norm = float(windows[pulse][1][r - w0]) if pulse is not None else 0.0
            budget = initial_norm[i] + inflow_norm
            if not np.isfinite(held):
                raise PhysicsViolation(f"non-finite state norm at t={(r + 0.5) * dt:.4g}")
            if held + emitted_i > budget + PROBABILITY_SLACK:
                raise PhysicsViolation(
                    f"held norm {held:.6g} plus emitted norm {emitted_i:.6g} exceeds "
                    f"input {budget:.6g} at t={(r + 0.5) * dt:.4g}"
                )
            if r in snap_steps[i] or last:
                state = FieldState(z, v[0] + 1j * v[1], v[4] + 1j * v[5], v[2] + 1j * v[3],
                                   (r + 1) * dt)
                if r in snap_steps[i]:
                    snapshots[i].append(state)
                if last:
                    finals[i] = (state, initial_norm[i], inflow_norm, emitted_i)
        if closes:
            w0 = r + 1
            fill(w0, w0 + _CHECK_EVERY)
    carry(m)  # the quadrature of the last block; its product is a zero map's

    sqrt_c = math.sqrt(C_EFF)
    trajectories = []
    for i in range(b):
        emitted[i] *= sqrt_c
        final_state, *ledger = finals[i]
        trajectories.append(Trajectory(dt, emitted[i], final_state, float(loss_quad[i]),
                                       *ledger, tuple(snapshots[i])))
    return trajectories

