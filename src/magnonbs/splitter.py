"""Characterize the memory's light/spin-wave interconversion as a 2x2 splitter.

A control segment applied to a cell holding a stored spin wave while a probe
pulse arrives mixes the two excitations.  Because the dynamics are linear in
the weak amplitudes, two single-input runs (spin wave only, probe only)
determine the full transfer matrix

    [magnon_out]   [t1  r2] [magnon_in]
    [photon_out] = [r1  t2] [photon_in]

with output modes defined by the interference run's own emission profile and
final spin-wave shape.  The matrix is generally subunitary: population left
in the excited state or lost to decay during the mixing makes it lossy, which
is what distinguishes this splitter from a textbook one.

The round-trip phase  phi_rt = arg(r1 r2) - arg(t1 t2)  is gauge invariant
(unchanged by rephasing any input or output port) and controls two-particle
interference: cos(phi_rt) = -1 reproduces bosonic bunching, +1 mimics
fermionic antibunching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    ControlTimeline,
    FieldState,
    MediumParams,
    PulseEnvelope,
    SplitterMatrix,
)
from .mbloch import SimulationConfig, Trajectory, evolve

_TWO_PI = 2.0 * math.pi


def tau_from_fwhm(fwhm: float) -> float:
    """Gaussian amplitude 1/e half-width from the intensity FWHM."""
    if fwhm <= 0:
        raise ConfigError("pulse fwhm must be positive")
    return fwhm / (2.0 * math.sqrt(math.log(2.0)))


def phi_rt_analytic(
    rabi: float, detuning: float, od: float, tau: float, gamma31: float = 1.0
) -> float:
    """Adiabatic estimate of the round-trip phase for a pulsed control stage.

    Valid for a control pulse of amplitude duration `tau` (see
    `tau_from_fwhm`), Rabi frequency `rabi`, one-photon detuning `detuning`
    and optical depth `od`.  Returns the phase in [0, 2*pi).
    """
    if od <= 0:
        raise ConfigError("round-trip phase estimate needs a positive od")
    if gamma31 <= 0:
        raise ConfigError("gamma31 must be positive")
    x = abs(rabi) ** 2 * tau / (4.0 * gamma31)
    if x <= 0:
        raise ConfigError("control pulse area must be nonzero")
    d = detuning / gamma31
    xi = np.exp(-x / (1.0 - 1j * d))
    scale = max(x, od, 1.0)
    den = x - od * (1.0 - xi)
    if abs(den) < 1e-12 * scale:
        raise ConfigError(
            "round-trip phase estimate degenerate at this drive/od combination"
        )
    if abs(xi) < 1e-300:
        # exp(-x/(1-id)) underflowed; 1 - 1/xi has no usable phase left.
        raise ConfigError("control pulse area too large for the phase estimate")
    phase = np.angle(1.0 - 1.0 / xi) + np.angle(od * (xi - 1.0) / den)
    return float(phase % _TWO_PI)


def fold_phase(phi: float) -> float:
    """Distance of a phase from 0 modulo 2*pi, in [0, pi]."""
    p = phi % _TWO_PI
    return min(p, _TWO_PI - p)


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
    times: np.ndarray,
    dt: float,
    ea_out: np.ndarray,
    eb_out: np.ndarray,
    sa_fin: np.ndarray,
    sb_fin: np.ndarray,
    dz: float,
    input_a: float,
    input_b: float,
    window: tuple[float, float] | None = None,
) -> SplitterMatrix:
    """Project two single-input runs onto shared output modes.

    Run (a) starts from a stored spin wave, run (b) from an incoming probe.
    The photon output mode is the windowed sum emission of both runs; the
    magnon output mode is the sum of both final spin waves.  By linearity the
    interference run is the coherent sum of the two, so these are the modes an
    actual two-input experiment would populate.  The emitted fields are
    sampled at `times`, `dt` apart.
    """
    if input_a < 1e-3 or input_b < 1e-3:
        raise ConfigError(
            f"port inputs too small to characterize: {input_a:.3g}, {input_b:.3g}"
        )
    times = np.asarray(times, dtype=float)
    if window is None:
        mask = np.ones(times.size, dtype=bool)
    else:
        mask = (times >= window[0]) & (times <= window[1])
        if not np.any(mask):
            raise ConfigError(f"photon window {window} contains no samples")

    ea = np.where(mask, ea_out, 0.0)
    eb = np.where(mask, eb_out, 0.0)
    u = ea + eb
    u_norm = dt * np.sum(np.abs(u) ** 2)
    if u_norm <= 1e-12:
        raise ConfigError("photon output mode has vanishing norm")
    u_hat = u / math.sqrt(u_norm)

    m = np.asarray(sa_fin, dtype=complex) + np.asarray(sb_fin, dtype=complex)
    m_norm = dz * np.sum(np.abs(m) ** 2)
    if m_norm <= 1e-12:
        raise ConfigError("magnon output mode has vanishing norm")
    m_hat = m / math.sqrt(m_norm)

    ra = 1.0 / math.sqrt(input_a)
    rb = 1.0 / math.sqrt(input_b)
    t1 = dz * np.vdot(m_hat, sa_fin) * ra
    r2 = dz * np.vdot(m_hat, sb_fin) * rb
    r1 = dt * np.vdot(u_hat, ea) * ra
    t2 = dt * np.vdot(u_hat, eb) * rb
    return SplitterMatrix(t1=t1, r1=r1, t2=t2, r2=r2)


@dataclass(frozen=True)
class ExtractionResult:
    """Measured splitter matrix with the runs behind it."""

    matrix: SplitterMatrix
    window: tuple[float, float]
    input_a: float
    input_b: float
    run_magnon: Trajectory
    run_photon: Trajectory


def _default_window(
    medium: MediumParams, timeline: ControlTimeline
) -> tuple[float, float]:
    segs = timeline.by_label("beamsplit")
    if not segs:
        raise ConfigError("timeline has no beamsplit segment")
    start = segs[0].t_start
    stop = segs[-1].t_end + medium.length / medium.c_eff + 0.5
    for seg in timeline.segments:
        if seg.t_start >= segs[-1].t_end and seg.label != "beamsplit":
            stop = min(stop, seg.t_start)
    return (start, stop)


def extract_matrix(
    medium: MediumParams,
    timeline: ControlTimeline,
    pulse: PulseEnvelope,
    initial_magnon: FieldState,
    n_z: int = 160,
    t_end: float | None = None,
    window: tuple[float, float] | None = None,
) -> ExtractionResult:
    """Measure the splitter matrix realized by a control timeline.

    Runs the solver twice: once from the stored spin wave with no input
    light, once from vacuum with the probe pulse.  The timeline should end
    with the mixing stage (no readout segment), so the final spin wave is the
    magnon output port.
    """
    if t_end is None:
        t_end = timeline.t_last + 3.0
    if window is None:
        window = _default_window(medium, timeline)
    config = SimulationConfig(t_end=t_end, n_z=n_z)

    run_a = evolve(medium, timeline, config, pulse=None, initial=initial_magnon)
    run_b = evolve(medium, timeline, config, pulse=pulse, initial=None)

    input_a = run_a.final_state.initial_norm
    input_b = run_b.final_state.injected_norm
    matrix = splitter_from_outputs(
        run_a.times,
        run_a.dt,
        run_a.emitted,
        run_b.emitted,
        run_a.final_state.sigma12,
        run_b.final_state.sigma12,
        run_a.final_state.dz,
        input_a,
        input_b,
        window=window,
    )
    return ExtractionResult(
        matrix=matrix,
        window=window,
        input_a=input_a,
        input_b=input_b,
        run_magnon=run_a,
        run_photon=run_b,
    )


def effective_overlap(result: ExtractionResult) -> float:
    """Two-particle envelope overlap of the two single-input runs.

    The coincidence interference term couples the photon-port amplitudes and
    the magnon-port amplitudes of the two runs at once, so the usable overlap
    is the product of the photon-side amplitude overlap (windowed emission
    profiles) and the magnon-side amplitude overlap (final spin waves), each
    normalized to [0, 1].  The product form keeps the value a bound on the
    interference contrast rather than a single-port mode match.
    """
    run_a, run_b = result.run_magnon, result.run_photon
    t = run_a.times
    lo, hi = result.window
    mask = (t >= lo) & (t <= hi)
    ea = np.where(mask, run_a.emitted, 0.0)
    eb = np.where(mask, run_b.emitted, 0.0)
    sa = run_a.final_state.sigma12
    sb = run_b.final_state.sigma12
    den_ph = np.linalg.norm(ea) * np.linalg.norm(eb)
    den_mg = np.linalg.norm(sa) * np.linalg.norm(sb)
    if den_ph < 1e-12 or den_mg < 1e-12:
        return 0.0
    c_ph = abs(np.vdot(ea, eb)) / den_ph
    c_mg = abs(np.vdot(sa, sb)) / den_mg
    return float(min(1.0, c_ph * c_mg))

