"""Characterize the memory's light/spin-wave interconversion as a 2x2 splitter.

A mixing stage, a beamsplit control segment from t = 0 to a cut time, acts
on a cell holding a stored spin wave while a probe pulse arrives and mixes
the two excitations.  Because the dynamics are linear in the weak
amplitudes, two single-input runs (spin wave only, probe only) determine
the full transfer matrix

    [magnon_out]   [t1  r2] [magnon_in]
    [photon_out] = [r1  t2] [photon_in]

with output modes defined by the interference run's own emission profile, up
to a cell transit plus 0.5 after the cut, and final spin-wave shape.  The
matrix is generally subunitary: population left in the excited state or
lost to decay during the mixing makes it lossy, which is what distinguishes
this splitter from a textbook one.

The round-trip phase  phi_rt = arg(r1 r2) - arg(t1 t2)  is gauge invariant
(unchanged by rephasing any input or output port) and controls two-particle
interference: cos(phi_rt) = -1 reproduces bosonic bunching, +1 mimics
fermionic antibunching.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

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
)
from .mbloch import SimulationConfig, Trajectory, evolve_batch

_TWO_PI = 2.0 * math.pi
_NOT_FINITE = "phase estimate needs a finite od > 0 and a finite detuning"
_DEGENERATE = "round-trip phase estimate degenerate at this drive/od combination"
_UNDERFLOW = "control pulse area too large for the phase estimate"  # xi underflows
_TOO_DETUNED = "detuning too large against the pulse area for the phase estimate"
# |1 - xi| falls as x / |detuning|; below this its square is no normal float.
_SQRT_TINY = math.sqrt(sys.float_info.min)
# The last drive `phi_rt_analytic` validated: its rabi, od and tau objects, each
# a Python float or int, then what `_drive` made of them.  One tuple, replaced
# whole, so that a reader never pairs one call's arguments with another's drive.
# It starts with keys that no caller holds.
_last_drive: tuple = (object(), object(), object(), None)
_NUMBERS = (float, int)  # values that cannot change in place
# Detunings `phi_rt_sweep` evaluates at once: 64 B of temporaries each.
_SWEEP_CHUNK = 4096


def tau_from_fwhm(fwhm: float) -> float:
    """Gaussian amplitude 1/e half-width from the intensity FWHM."""
    if not 0 < fwhm < math.inf:
        raise ConfigError(f"pulse fwhm must be positive and finite, got {fwhm}")
    return fwhm / (2.0 * math.sqrt(math.log(2.0)))


def phi_rt_analytic(rabi: float, detuning: float, od: float, tau: float) -> float:
    """Adiabatic estimate of the round-trip phase for a pulsed control stage.

    Valid for a control pulse of amplitude duration `tau` (see
    `tau_from_fwhm`), Rabi frequency `rabi`, one-photon detuning `detuning`
    and optical depth `od`.  With pulse area x = |rabi|^2 tau / 4,
    xi = exp(-x / (1 - i detuning)) and den = x - od (1 - xi), the phase is
    arg((1 - xi)^2 / (xi den)) mod 2 pi, in [0, 2*pi): one angle for
    arg(1 - 1/xi) + arg(od (xi - 1) / den), as od > 0.  A NaN or infinite
    input, an od so large that the estimate overflows, or a detuning so large
    against x that (1 - xi)^2 underflows, raises ConfigError.

    A call passing the same rabi, od and tau objects (Python floats or ints)
    as the last call that validated its drive reuses that drive: a detuning
    sweep validates its drive once.
    """
    global _last_drive
    last_rabi, last_od, last_tau, drive = _last_drive
    # Immutable and identical, so equal: the drive the memo holds is theirs.
    if rabi is last_rabi and od is last_od and tau is last_tau:
        if not math.isfinite(detuning):
            raise ConfigError(_NOT_FINITE)
    else:
        # Written so that NaN, which fails every comparison, fails the checks.
        if not (0 < od < math.inf and math.isfinite(detuning)):
            raise ConfigError(_NOT_FINITE)
        drive = _drive(rabi, od, tau)
        if type(rabi) in _NUMBERS and type(od) in _NUMBERS and type(tau) in _NUMBERS:
            _last_drive = (rabi, od, tau, drive)
    x, od, floor, max_detuning = drive
    # Python floats and cmath: on numpy scalars this costs three times as much.
    d = float(detuning)
    if not -max_detuning <= d <= max_detuning:
        raise ConfigError(_TOO_DETUNED)
    xi = cmath.exp(-x / (1.0 - 1j * d))
    m = 1.0 - xi
    den = x - od * m
    if abs(den) < floor:
        raise ConfigError(_DEGENERATE)
    if abs(xi) < 1e-300:
        raise ConfigError(_UNDERFLOW)
    return cmath.phase(m * m / (xi * den)) % _TWO_PI


def phi_rt_sweep(rabi: float, detunings: np.ndarray, od: float, tau: float) -> np.ndarray:
    """`phi_rt_analytic` at every detuning of an array, _SWEEP_CHUNK at a time.

    Agrees with the scalar calls to roundoff.  Any non-finite detuning, or
    any detuning where the scalar call would raise, raises ConfigError; a
    sweep that holds both a degenerate detuning and one where xi underflows
    raises the degenerate one's.  What it holds besides its output does not
    grow with the array.
    """
    detunings = np.asarray(detunings, dtype=float)
    # The least and the greatest detuning are NaN if any detuning is, and
    # infinite if any is: both checks read the whole array, with no copy.
    lo, hi = detunings.min(initial=0.0), detunings.max(initial=0.0)
    if not (0 < od < math.inf and math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("phase estimate needs a finite od > 0 and finite detunings")
    x, od, floor, max_detuning = _drive(rabi, od, tau)
    if not -max_detuning <= lo <= hi <= max_detuning:
        raise ConfigError(_TOO_DETUNED)
    out = np.empty(detunings.shape)
    flat, flat_out = detunings.reshape(-1), out.reshape(-1)
    # An xi that underflows is raised once no chunk's den is degenerate;
    # no phase is taken after it.
    underflow = False
    for k in range(0, flat.size, _SWEEP_CHUNK):
        xi = np.exp(-x / (1.0 - 1j * flat[k : k + _SWEEP_CHUNK]))
        m = 1.0 - xi
        den = x - od * m
        if (np.abs(den) < floor).any():
            raise ConfigError(_DEGENERATE)
        underflow = underflow or bool((np.abs(xi) < 1e-300).any())
        if not underflow:
            np.mod(np.angle(m * m / (xi * den)), _TWO_PI, out=flat_out[k : k + _SWEEP_CHUNK])
    if underflow:
        raise ConfigError(_UNDERFLOW)
    return out


def _drive(rabi: float, od: float, tau: float) -> tuple[float, float, float, float]:
    """The phase estimate's drive, validated without a detuning.

    Returns the pulse area x = |rabi|^2 tau / 4, `od` as a float, the floor
    below which |den| is degenerate and the largest |detuning| the estimate
    takes.  `od` must already be known to be finite and positive.
    """
    od, r = float(od), float(abs(rabi))
    # Not `** 2`: a Python float raises OverflowError there, while a
    # product overflows to inf and fails the guard below.
    x = r * r * float(tau) / 4.0
    if not 0 < x < math.inf:
        raise ConfigError("control pulse area must be nonzero and finite")
    # No value of the closed form exceeds 4 (x + od) in size.  Keep that finite:
    # abs() of a Python complex raises OverflowError where numpy's gives inf.
    if not 4.0 * (x + od) < math.inf:
        raise ConfigError("pulse area and od too large for the phase estimate")
    return x, od, 1e-12 * max(x, od, 1.0), x / _SQRT_TINY


def fold_phase(phi: float | np.ndarray) -> np.floating | np.ndarray:
    """Distance of each phase (a scalar or an array) from 0 mod 2*pi, in [0, pi]."""
    p = np.mod(phi, _TWO_PI)
    return np.minimum(p, _TWO_PI - p)


def phi_rt_of_matrix(b: SplitterMatrix) -> float:
    """Gauge-invariant round-trip phase arg(r1 r2 / (t1 t2)) in [0, 2*pi)."""
    amps = (b.t1, b.r1, b.t2, b.r2)
    floor = 1e-12 * max(abs(a) for a in amps)
    if any(abs(a) <= floor for a in amps):
        raise ConfigError(
            "round-trip phase undefined: a splitter amplitude vanishes"
        )
    return float((np.angle(b.r1 * b.r2) - np.angle(b.t1 * b.t2)) % _TWO_PI)


def splitter_from_outputs(
    grams: np.ndarray, inputs: tuple[float, float]
) -> SplitterMatrix:
    """Project two single-input runs onto shared output modes.

    `grams[d]` is port d's Gram matrix of the two runs' outputs,
    `grams[d][k, l] = <psi_k|psi_l>` over port d, with port 0 the magnon
    port (final spin waves) and port 1 the photon port (windowed
    emissions); run 0 starts from a stored spin wave and run 1 from an
    incoming probe, and `inputs` are the excitations they started with.
    Each port's output mode is the sum of the two runs' outputs.  By
    linearity the interference run is the coherent sum of the two, so
    these are the modes an actual two-input experiment would populate.
    """
    if min(inputs) < 1e-3:
        raise ConfigError(
            "port inputs too small to characterize: "
            f"{inputs[0]:.3g}, {inputs[1]:.3g}"
        )
    grams = np.asarray(grams, dtype=complex)
    # <psi_0 + psi_1|psi_l> is column l's sum, and the mode's norm the
    # sum of all four entries.
    norms = grams.sum(axis=(1, 2)).real
    if norms[1] <= 1e-12:
        raise ConfigError("photon output mode has vanishing norm")
    if norms[0] <= 1e-12:
        raise ConfigError("magnon output mode has vanishing norm")
    amps = grams.sum(axis=1) / np.sqrt(norms)[:, None] / np.sqrt(inputs)
    (t1, r2), (r1, t2) = amps
    return SplitterMatrix(t1=t1, r1=r1, t2=t2, r2=r2)


@dataclass(frozen=True, eq=False)
class ExtractionResult(_ArrayValue):
    """Measured splitter matrix with the runs behind it and their exact
    coincidence, which is read off them at each read.

    `grams` holds the two port Gram matrices of the runs' outputs, as
    `splitter_from_outputs` reads them: the magnon port's over the final
    spin waves, then the photon port's over the photon window.  Row and
    column 0 are the magnon run a, from the stored wave, and 1 the photon
    run b, from the probe.

    `stack` is (G0, G1, L) per unit input, the port Grams and the loss Gram
    L = I - G0 - G1, as `fock_oracle._distribution_from_grams` takes them.
    With e the photon port's outputs (norms N) and s the magnon port's
    (norms M), all per unit input, `p11` is P(1,1) = N_a M_b + N_b M_a +
    2 Re(<e_a,e_b><s_b,s_a>) (Legero et al., Appl. Phys. B 77, 797 (2003);
    Shchesnovich, PRA 91, 013844 (2015)) and `g2` is P(1,1) over its first
    two terms.  `overlap`, at most 1, is |<e_a,e_b><s_b,s_a>| /
    sqrt(N_a N_b M_a M_b), both ports at once: a bound on the interference
    contrast rather than a single port's mode match.  It is the ports'
    |G_01| / sqrt(G_00 G_11) multiplied, on the Grams as measured, where a
    sqrt(G_00 G_11) below 1e-12 makes it 0.
    """

    matrix: SplitterMatrix
    grams: np.ndarray
    run_magnon: Trajectory
    run_photon: Trajectory

    def __post_init__(self) -> None:
        self.grams.setflags(write=False)  # built for this result alone

    @property
    def stack(self) -> np.ndarray:
        root = np.sqrt([self.run_magnon.initial_norm, self.run_photon.injected_norm])
        spin, light = self.grams / np.outer(root, root)
        return np.stack([spin, light, np.eye(2) - spin - light])

    @property
    def p11(self) -> float:
        return self._p11_and_g2()[0]

    @property
    def g2(self) -> float:
        return self._p11_and_g2()[1]

    def _p11_and_g2(self) -> tuple[float, float]:
        spin, light, _ = self.stack
        apart = (light[0, 0] * spin[1, 1] + light[1, 1] * spin[0, 0]).real
        p11 = apart + 2.0 * (light[0, 1] * spin[1, 0]).real
        return float(p11), float(p11 / apart)

    @property
    def overlap(self) -> float:
        g = self.grams
        ports = np.sqrt(g[:, 0, 0].real * g[:, 1, 1].real)
        overlap = 0.0 if ports.min() < 1e-12 else min(1.0, np.prod(abs(g[:, 0, 1]) / ports))
        return float(overlap)


def extract_matrix(
    medium: MediumParams,
    rabi_bs: float,
    t_cut: float,
    pulse: PulseEnvelope,
    initial_magnon: FieldState,
    t_end: float,
) -> ExtractionResult:
    """Measure the splitter matrix of one mixing stage.

    The stage is a beamsplit segment of drive `rabi_bs` from t = 0 to
    `t_cut`.  Runs the solver twice on the stored wave's grid, as one
    batch, for `t_end` each: once from the stored spin wave with no input
    light, once from vacuum with the probe pulse.  No drive follows the
    stage, so the final spin wave is the magnon output port.  The photon
    output port is the emission at the steps up to t_cut + 1 / C_EFF +
    0.5; the window starts at t = 0, so it always holds the first step.
    """
    timeline = ControlTimeline((ControlSegment(0.0, t_cut, rabi_bs, "beamsplit"),))
    config = SimulationConfig(t_end=t_end, n_z=initial_magnon.z_grid.size)
    run_a, run_b = evolve_batch([
        (medium, timeline, config, None, initial_magnon),
        (medium, timeline, config, pulse, None),
    ])

    # The step times are sorted, so the window is a prefix of the steps.
    hi = np.searchsorted(run_a.times, t_cut + 1.0 / C_EFF + 0.5, side="right")
    spin = np.stack([run_a.final_state.sigma12, run_b.final_state.sigma12])
    light = np.stack([run_a.emitted[:hi], run_b.emitted[:hi]])
    grams = np.stack([
        run_a.final_state.dz * (spin.conj() @ spin.T),
        run_a.dt * (light.conj() @ light.T),
    ])
    inputs = (run_a.initial_norm, run_b.injected_norm)
    return ExtractionResult(
        matrix=splitter_from_outputs(grams, inputs),
        grams=grams,
        run_magnon=run_a,
        run_photon=run_b,
    )
