"""Shared domain types for the memory / beam-splitter simulator.

Everything internal runs in normalized units:

* length in units of the medium length L (the cell spans z in [0, 1]),
* time in units of 1/gamma31 (optical coherence decay rate),
* Rabi frequencies, detunings and couplings in units of gamma31.

So L = gamma31 = 1 by definition, and the bare field's propagation speed is
the fixed model constant C_EFF in these units.  SI values (MHz, ns) exist
only at the CLI boundary.  The optical depth is an intensity depth: with the
control off, a resonant cw probe leaves with transmission exp(-od).  That
convention ties the collective coupling G to the depth through
od = 2 G^2 / C_EFF.

Atomic amplitudes are stored collectively: the sigma12/sigma13 arrays hold
sqrt(N) * (coherence per atom), so their squared integrals count excitations
on the same footing as the field norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# Probability-like quantities may exceed their physical range by at most this
# much (accumulated roundoff) before we treat it as a bug rather than noise.
PROBABILITY_SLACK = 1e-6

# Default duration of the raised-cosine edges on control segments.
DEFAULT_RAMP = 0.1

# Propagation speed of the bare probe field, in cell lengths per 1/gamma31.
C_EFF = 12.0

SEGMENT_LABELS = ("storage", "beamsplit", "readout", "off")


class ConfigError(ValueError):
    """A constructed object or configuration violates its contract."""


class PhysicsViolation(RuntimeError):
    """A probability or norm left its physical range by more than roundoff."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


class _ArrayValue:
    """Base of the frozen dataclasses (eq=False) that hold arrays: unpickled
    through __init__, as plain unpickling skips the __post_init__ that makes
    them read-only, and compared with np.array_equal, where the generated
    __eq__ would raise on arrays of more than one entry."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)


def _require_finite(obj, *names: str) -> None:
    """Raise ConfigError if one of obj's named fields holds a NaN or infinity."""
    for name in names:
        value = getattr(obj, name)
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"{type(obj).__name__}.{name} must be finite, got {value}")


def _require_passive(s: np.ndarray) -> None:
    """Raise PhysicsViolation if the largest singular value exceeds 1 + 1e-10.

    `s` holds a transfer matrix's singular values, largest first, as
    np.linalg.svd returns them, so a caller that factors the matrix anyway
    factors it once.
    """
    smax = s[0]
    if not smax <= 1.0 + 1e-10:
        raise PhysicsViolation(
            f"transfer matrix has gain: largest singular value {smax}"
        )


def _check_overlap(value: float | np.ndarray, name: str) -> np.ndarray:
    """The overlap(s) clipped onto [0, 1]; NaN or outside [0, 1 + 1e-9] raises."""
    v = np.asarray(value, dtype=float)
    if not ((v >= 0.0) & (v <= 1.0 + 1e-9)).all():  # NaN fails both bounds
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return np.minimum(v, 1.0)


def _require_cells(n_cells: int) -> None:
    """Raise ConfigError if a grid of n_cells cannot resolve a stored profile."""
    if n_cells < 16:
        raise ConfigError(
            f"spatial grid needs at least 16 cells to resolve a stored "
            f"profile, got {n_cells}"
        )


def make_grid(n_cells: int) -> np.ndarray:
    """Cell-center positions of a uniform grid of n_cells over the cell [0, 1].

    Cell-centered samples make the transport bookkeeping exact: a field cell
    traverses exactly n_cells steps of interaction over the length, with no
    half-weight endpoints.
    """
    _require_cells(n_cells)
    dz = 1.0 / int(n_cells)
    grid = (np.arange(int(n_cells)) + 0.5) * dz
    return _readonly(grid)


@dataclass(frozen=True)
class MediumParams:
    """Static parameters of the atomic cell.

    The collective coupling G is derived from the optical depth through
    od = 2 G^2 / C_EFF (L = gamma31 = 1).
    """

    od: float
    gamma12: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma12 < 0:
            raise ConfigError("gamma12 cannot be negative")
        if self.od < 0:
            raise ConfigError("optical depth cannot be negative")
        _require_finite(self, "od", "delta", "gamma12")
        # 4 G^2 = 2 od C_EFF enters the group velocity and must stay finite.
        if not math.isfinite(2.0 * self.od * C_EFF):
            raise ConfigError(f"optical depth {self.od} overflows 4 G^2")

    @property
    def coupling(self) -> float:
        """Collective coupling G, in units of gamma31."""
        return math.sqrt(self.od * C_EFF / 2.0)


@dataclass(frozen=True)
class PulseEnvelope:
    """Gaussian envelope of the input probe amplitude at the cell entrance.

    `amplitude(t)` is normalized so that its squared integral over time equals
    `amplitude_norm` (the injected excitation number).  fwhm refers to the
    intensity profile.  The amplitude is complex in type and real in value,
    a Gaussian with no imaginary part, and the solver relies on it: a
    resonant run stepped in its real rows (`mbloch`) injects the real part
    alone.
    """

    fwhm: float = 1.0
    t_center: float = 0.0
    amplitude_norm: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, "fwhm", "t_center")
        # The amplitude divides by 4 sigma^2, which must be a normal float.
        if not (self.fwhm > 0 and 4.0 * self.sigma * self.sigma >= np.finfo(float).tiny):
            raise ConfigError(f"pulse fwhm must be positive, about 1.8e-154 or more, got {self.fwhm}")
        if not 0.0 <= self.amplitude_norm <= 1.0 + PROBABILITY_SLACK:
            raise ConfigError(
                f"amplitude_norm is a single-excitation weight in [0, 1], "
                f"got {self.amplitude_norm}"
            )

    @property
    def sigma(self) -> float:
        """Standard deviation of the intensity profile."""
        return self.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    def amplitude(self, t: np.ndarray | float) -> np.ndarray | complex:
        t = np.asarray(t, dtype=float)
        s = self.sigma
        peak = self.amplitude_norm / (s * math.sqrt(2.0 * math.pi))
        # exp(-1024) is 0.0: held to 64 sigma, the distance's square cannot overflow.
        d = np.minimum(np.abs(t - self.t_center), 64.0 * s)
        out = math.sqrt(peak) * np.exp(-(d**2) / (4.0 * s * s))
        out = out.astype(complex)
        if out.ndim == 0:
            return complex(out)
        return out


@dataclass(frozen=True)
class ControlSegment:
    """One labeled interval of constant control drive.

    `amplitude` is the real Rabi frequency held inside the interval; a
    constant drive phase is the gauge S -> exp(i theta) S, which a caller
    applies to the state.  Edges are raised-cosine ramps of duration `ramp`
    placed inside the interval, so the drive is continuous and vanishes at
    both segment ends.
    """

    t_start: float
    t_end: float
    amplitude: float
    label: str = "off"
    ramp: float = DEFAULT_RAMP

    def __post_init__(self) -> None:
        if self.label not in SEGMENT_LABELS:
            raise ConfigError(
                f"segment label {self.label!r} not in {SEGMENT_LABELS}")
        if np.iscomplexobj(self.amplitude):
            raise ConfigError(f"segment drive must be real, got {self.amplitude}")
        _require_finite(self, "t_start", "t_end", "amplitude", "ramp")
        if not self.t_end > self.t_start:
            raise ConfigError("segment must have positive duration")
        if self.ramp < 0:
            raise ConfigError("ramp duration cannot be negative")

    def _edge(self, t: np.ndarray, ramp: float) -> np.ndarray:
        # Raised-cosine turn-on/turn-off weight; it is exactly 1 wherever both
        # clipped ramp coordinates are 1, so callers pass only ramp samples.
        # Clipped before it is divided, a distance cannot overflow the quotient.
        up = np.clip(t - self.t_start, 0.0, ramp) / ramp
        down = np.clip(self.t_end - t, 0.0, ramp) / ramp
        return 0.5 * (1 - np.cos(np.pi * up)) * 0.5 * (1 - np.cos(np.pi * down))

    def _add_to(self, out: np.ndarray, t: np.ndarray) -> None:
        """Add this segment's drive at the times t into `out`, in place."""
        inside = (t >= self.t_start) & (t <= self.t_end)
        ramp = min(self.ramp, 0.5 * (self.t_end - self.t_start))
        if ramp > 0:
            # Samples within a ramp of an end, where a clipped coordinate is below 1.
            ramped = t - self.t_start < ramp
            ramped |= self.t_end - t < ramp
            ramped &= inside
            inside &= ~ramped
            out[ramped] += self.amplitude * self._edge(t[ramped], ramp)
        np.add(out, self.amplitude, out=out, where=inside)


@dataclass(frozen=True)
class ControlTimeline:
    """Ordered, non-overlapping control segments of real drive; gaps mean
    zero drive."""

    segments: tuple[ControlSegment, ...]

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        for a, b in zip(segs, segs[1:]):
            if b.t_start < a.t_end - 1e-12:
                raise ConfigError(
                    f"segments overlap: [{a.t_start}, {a.t_end}] and "
                    f"[{b.t_start}, {b.t_end}]"
                )
        object.__setattr__(self, "segments", segs)

    def rabi(self, t: np.ndarray | float) -> np.ndarray | float:
        """Control Rabi frequency at time(s) t, real."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for seg in self.segments:
            seg._add_to(out, t)
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True, eq=False)
class FieldState(_ArrayValue):
    """The coupled field/atom amplitudes on the grid at time t_now.

    sigma12/sigma13 are collective amplitudes (sqrt(N)-scaled), so
    dz * sum|.|^2 counts excitations directly.  A state holds no ledger: a
    prepared state is its amplitudes, and the norms a run took in and
    emitted are its trajectory's.
    """

    z_grid: np.ndarray
    e_field: np.ndarray
    sigma12: np.ndarray
    sigma13: np.ndarray
    t_now: float = 0.0

    def __post_init__(self) -> None:
        n = self.z_grid.size
        for name in ("e_field", "sigma12", "sigma13"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigError(f"{name} must match the grid ({n} points)")
            object.__setattr__(self, name, _readonly(np.asarray(arr, dtype=complex)))
        object.__setattr__(self, "z_grid", _readonly(self.z_grid))

    @property
    def dz(self) -> float:
        return float(self.z_grid[1] - self.z_grid[0])

    @property
    def photon_norm(self) -> float:
        return float(self.dz * np.sum(np.abs(self.e_field) ** 2))

    @property
    def magnon_norm(self) -> float:
        return float(self.dz * np.sum(np.abs(self.sigma12) ** 2))

    @property
    def excited_norm(self) -> float:
        return float(self.dz * np.sum(np.abs(self.sigma13) ** 2))


@dataclass(frozen=True)
class SplitterMatrix:
    """2x2 transfer matrix of the hybrid splitter.

    Acts on (magnon_in, photon_in); the matrix is [[t1, r2], [r1, t2]] so
    magnon_out = t1 * magnon_in + r2 * photon_in and
    photon_out = r1 * magnon_in + t2 * photon_in.  Passivity is checked on
    construction, so no column's squared norm (a port's survival) exceeds 1.
    """

    t1: complex
    r1: complex
    t2: complex
    r2: complex

    def __post_init__(self) -> None:
        for name in ("t1", "r1", "t2", "r2"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        _require_finite(self, "t1", "r1", "t2", "r2")
        _require_passive(np.linalg.svd(self.matrix, compute_uv=False))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.t1, self.r2], [self.r1, self.t2]], dtype=complex)
