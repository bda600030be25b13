"""Independent references the benchmark checks magnonbs against.

Nothing here imports magnonbs: each function is written from the physics
or the combinatorics directly, so a check against it can catch a fault in
the program rather than repeat it.

* `eit_transfer` / `eit_output`: closed-form transfer function H(omega) of a
  uniform Lambda medium under a constant control drive (Fleischhauer &
  Lukin, PRL 84, 5094 (2000)), applied to a sampled input by FFT.
* `ryser_permanent`: Ryser's inclusion-exclusion formula, not the
  permutation expansion the program uses.
* `two_port_coincidence`: P(1,1) of a general lossy two-port for two
  partially distinguishable particles, in closed form.
* `distinguishable_routing`: counting distribution of fully
  distinguishable particles, each routed on its own through the lossy
  transfer matrix, with no unitary dilation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ----------------------------------------------------------------- EIT


def gaussian_amplitude(t, fwhm: float, t_center: float, norm: float = 1.0):
    """Input amplitude whose square integrates to `norm`; fwhm of |a|^2."""
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    peak = norm / (sigma * math.sqrt(2.0 * math.pi))
    t = np.asarray(t, dtype=float)
    return math.sqrt(peak) * np.exp(-((t - t_center) ** 2) / (4.0 * sigma * sigma))


def eit_transfer(omega, od, delta, rabi, gamma31=1.0, gamma12=0.0,
                 length=1.0, c_eff=12.0):
    """H(omega) = exp(i omega L / c - (od gamma31 / 2) / D(omega)).

    Fields are written E(t) = int E(omega) exp(-i omega t) d omega, and

        D(omega) = gamma31 - i delta - i omega + |rabi|^2 / (4 (gamma12 - i omega)).

    1/D is formed as (gamma12 - i omega) / ((gamma31 - i delta - i omega)
    (gamma12 - i omega) + |rabi|^2 / 4), which stays finite at omega = 0
    when gamma12 = 0 (there H is the bare delay: full transparency).  With
    no drive the spin wave decouples and 1/D = 1 / (gamma31 - i delta -
    i omega), so that at omega = delta = 0, |H|^2 = exp(-od).
    """
    w = np.asarray(omega, dtype=float)
    optical = gamma31 - 1j * delta - 1j * w
    if rabi == 0:
        inv_d = 1.0 / optical
    else:
        g = gamma12 - 1j * w
        inv_d = g / (optical * g + 0.25 * abs(rabi) ** 2)
    return np.exp(1j * w * length / c_eff - 0.5 * od * gamma31 * inv_d)


def eit_output(samples, dt, pad=8, **medium):
    """Field leaving the cell for input `samples` taken every `dt`.

    The input is zero-padded to `pad` times its length so the circular
    convolution of the FFT does not wrap the response back onto the window.
    Sample n of the result belongs to the same time label as input sample n.
    """
    x = np.asarray(samples, dtype=complex)
    m = 1 << int(math.ceil(math.log2(pad * x.size)))
    spectrum = np.fft.fft(x, m)
    # numpy's forward transform carries exp(-2 pi i k n / m); in the
    # exp(-i omega t) convention above that is frequency -2 pi f_k.
    omega = -2.0 * math.pi * np.fft.fftfreq(m, dt)
    return np.fft.ifft(spectrum * eit_transfer(omega, **medium))[: x.size]


def relative_l2(a, b) -> float:
    """||a - b|| / ||b||."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# ---------------------------------------------------------- permanents


def ryser_permanent(m) -> complex:
    """Permanent by Ryser's formula over column subsets."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for k in range(1, n + 1):
        for cols in itertools.combinations(range(n), k):
            total += (-1) ** k * np.prod(m[:, cols].sum(axis=1))
    return complex((-1) ** n * total)


def identical_distribution(u, ports) -> dict[tuple[int, ...], float]:
    """Output counts of identical particles entering `ports` of unitary `u`.

    P(s) = |per(U[s, ports])|^2 / prod(s_k!), with the rows of U repeated
    by the output occupations s.
    """
    u = np.asarray(u, dtype=complex)
    n_modes = u.shape[0]
    n = len(ports)
    out = {}
    for rows in itertools.combinations_with_replacement(range(n_modes), n):
        counts = tuple(rows.count(k) for k in range(n_modes))
        sub = u[np.ix_(rows, ports)]
        weight = math.prod(math.factorial(c) for c in counts)
        out[counts] = abs(ryser_permanent(sub)) ** 2 / weight
    return out


# ------------------------------------------------------------ two-port


def two_port_coincidence(transfer, overlap_i: float) -> float:
    """P(1,1) for one particle in each port of [[a, b], [c, d]].

    P(1,1) = |ad|^2 + |bc|^2 + 2 I Re(ad conj(bc)), with I the intensity
    overlap of the two particles' modes.  Loss only removes amplitude, so
    the expression holds for any passive two-port.
    """
    (a, b), (c, d) = np.asarray(transfer, dtype=complex)
    ad = a * d
    bc = b * c
    return float(abs(ad) ** 2 + abs(bc) ** 2
                 + 2.0 * overlap_i * (ad * np.conj(bc)).real)


def two_port_g2(transfer, overlap_i: float) -> float:
    """P(1,1) over its distinguishable per-routing value (|ad| + |bc|)^2 / 2."""
    (a, b), (c, d) = np.asarray(transfer, dtype=complex)
    baseline = (abs(a * d) + abs(b * c)) ** 2 / 2.0
    return two_port_coincidence(transfer, overlap_i) / baseline


# --------------------------------------------------- classical routing


def distinguishable_routing(transfer, ports) -> dict[tuple[int, ...], float]:
    """Output counts over the signal modes for independent particles.

    Particle j reaches output k with probability |T[k, p_j]|^2 and is lost
    with 1 - sum_k |T[k, p_j]|^2; lost particles are not counted.
    """
    t = np.asarray(transfer, dtype=complex)
    n_modes = t.shape[0]
    routes = []
    for p in ports:
        col = np.abs(t[:, p]) ** 2
        routes.append(np.append(col, 1.0 - col.sum()))
    out: dict[tuple[int, ...], float] = {}
    for dest in itertools.product(range(n_modes + 1), repeat=len(ports)):
        prob = math.prod(routes[j][k] for j, k in enumerate(dest))
        counts = tuple(dest.count(k) for k in range(n_modes))
        out[counts] = out.get(counts, 0.0) + prob
    return out


def distribution_gap(a: dict, b: dict) -> float:
    """Largest absolute difference between two sparse distributions."""
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))
