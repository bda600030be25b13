"""Exact few-particle statistics of a lossy linear network.

This is a brute-force reference model, deliberately independent of the wave
solver and of any closed-form interference formula.  A subunitary transfer
matrix is dilated to a unitary on twice as many modes (the extra modes absorb
the loss), input particles carry arbitrary pairwise-overlapping temporal
modes, and output probabilities come from permanents over every output
configuration.  Everything is enumerated; nothing is sampled or approximated,
so results are exact to machine precision for up to three particles.

Coincidence ratios are normalized per distinguishable routing: for the
all-ports-coincidence pattern the reference value is

    N = per(|T|)^2 / K

with K the number of routings (permutations of particles onto distinct
output ports) carrying nonzero amplitude.  For a two-port splitter this is
(|t1 t2| + |r1 r2|)^2 / 2, which reduces to the familiar 1/2 baseline when
the splitting is balanced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, PhysicsViolation, SplitterMatrix

_MAX_PARTICLES = 3


def permanent(m: np.ndarray) -> complex:
    """Permanent by direct expansion; fine for the sizes used here."""
    m = np.asarray(m)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ConfigError("permanent needs a square matrix")
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return complex(total)


@dataclass(frozen=True)
class ModeNetwork:
    """Square transfer matrix between signal modes, possibly lossy."""

    transfer: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.transfer, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ConfigError("transfer matrix must be square")
        smax = np.linalg.svd(t, compute_uv=False)[0]
        if smax > 1 + 1e-10:
            raise PhysicsViolation(
                f"transfer matrix has gain: largest singular value {smax}"
            )
        t.setflags(write=False)
        object.__setattr__(self, "transfer", t)

    @property
    def n_modes(self) -> int:
        return self.transfer.shape[0]


def network_from_splitter(b: SplitterMatrix) -> ModeNetwork:
    return ModeNetwork(b.matrix)


def dilate(net: ModeNetwork) -> np.ndarray:
    """Unitary on 2M modes whose top-left block is the transfer matrix.

    Modes M..2M-1 are loss sinks: amplitude routed there is excitation the
    physical network dissipated.
    """
    t = net.transfer
    m = net.n_modes
    u, s, vh = np.linalg.svd(t)
    s = np.minimum(s, 1.0)
    comp = np.sqrt(1.0 - s * s)
    top_right = u @ np.diag(comp) @ vh
    bottom_left = -vh.conj().T @ np.diag(comp) @ vh
    bottom_right = vh.conj().T @ np.diag(s) @ vh
    d = np.block([[u @ np.diag(s) @ vh, top_right], [bottom_left, bottom_right]])
    err = np.max(np.abs(d.conj().T @ d - np.eye(2 * m)))
    if err > 1e-9:
        raise PhysicsViolation(f"dilation failed unitarity check ({err:.2e})")
    return d


@dataclass(frozen=True)
class FockInput:
    """Single particles at a subset of input ports with pairwise overlaps.

    `occupations[p]` is 0 or 1 for each network port; `gram[j, k]` is the
    temporal-mode inner product between the j-th and k-th injected particles
    (ordered by port index).  The Gram matrix must be positive semidefinite
    with unit diagonal.
    """

    occupations: tuple[int, ...]
    gram: np.ndarray

    def __post_init__(self) -> None:
        occ = tuple(int(o) for o in self.occupations)
        if any(o not in (0, 1) for o in occ):
            raise ConfigError("port occupations must be 0 or 1")
        n = sum(occ)
        if n == 0:
            raise ConfigError("at least one particle required")
        if n > _MAX_PARTICLES:
            raise ConfigError(
                f"enumeration supports at most {_MAX_PARTICLES} particles, got {n}"
            )
        g = np.array(self.gram, dtype=float)
        if g.shape != (n, n):
            raise ConfigError(f"gram matrix must be {n}x{n} for {n} particles")
        if np.max(np.abs(g - g.T)) > 1e-9:
            raise ConfigError("gram matrix must be symmetric")
        if np.max(np.abs(np.diag(g) - 1.0)) > 1e-9:
            raise ConfigError("gram matrix needs a unit diagonal")
        g.setflags(write=False)
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "gram", g)

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(p for p, o in enumerate(self.occupations) if o)

    def mode_amplitudes(self) -> np.ndarray:
        """Rows are each particle's amplitudes over an orthonormal basis."""
        vals, vecs = np.linalg.eigh(self.gram)
        if vals.min() < -1e-9:
            raise ConfigError(
                f"gram matrix is not positive semidefinite "
                f"(eigenvalue {vals.min():.3e})"
            )
        vals = np.clip(vals, 0.0, None)
        keep = vals > 1e-14
        return vecs[:, keep] * np.sqrt(vals[keep])


def two_photon_input(overlap_i: float) -> FockInput:
    """Two particles, one per port, with intensity overlap `overlap_i`."""
    if not 0.0 <= overlap_i <= 1.0 + 1e-9:
        raise ConfigError(f"overlap must lie in [0, 1], got {overlap_i}")
    c = math.sqrt(min(overlap_i, 1.0))
    return FockInput((1, 1), np.array([[1.0, c], [c, 1.0]]))


def three_photon_input(
    i12: float, i23: float, i13: float | None = None
) -> FockInput:
    """Three particles, one per port; i13 defaults to the chain product."""
    for name, val in (("i12", i12), ("i23", i23)):
        if not 0.0 <= val <= 1.0 + 1e-9:
            raise ConfigError(f"{name} must lie in [0, 1], got {val}")
    if i13 is None:
        i13 = i12 * i23
    c12, c23, c13 = (math.sqrt(min(v, 1.0)) for v in (i12, i23, i13))
    g = np.array([[1.0, c12, c13], [c12, 1.0, c23], [c13, c23, 1.0]])
    return FockInput((1, 1, 1), g)


def output_distribution(
    net: ModeNetwork, inp: FockInput
) -> dict[tuple[int, ...], float]:
    """Exact output counting distribution, loss modes marginalized.

    Keys are occupation patterns over the M signal modes; a pattern that
    holds fewer than all the particles means the rest went to the loss
    sinks.  Probabilities sum to one.
    """
    if len(inp.occupations) != net.n_modes:
        raise ConfigError(
            f"input has {len(inp.occupations)} ports, network has {net.n_modes}"
        )
    d = dilate(net)
    amps = inp.mode_amplitudes()
    ports = inp.ports
    n = len(ports)
    m2 = 2 * net.n_modes
    n_t = amps.shape[1]

    # One flavor per (dilated mode, temporal basis state); particle j reaches
    # flavor (q, m) with amplitude D[q, p_j] * amps[j, m].
    flavors = [(q, mm) for q in range(m2) for mm in range(n_t)]
    b = np.empty((len(flavors), n), dtype=complex)
    for f, (q, mm) in enumerate(flavors):
        for j, p in enumerate(ports):
            b[f, j] = d[q, p] * amps[j, mm]

    raw: dict[tuple[int, ...], float] = {}
    for combo in itertools.combinations_with_replacement(range(len(flavors)), n):
        sub = b[list(combo), :]
        amp = permanent(sub)
        if amp == 0:
            continue
        mult = 1.0
        for _, count in itertools.groupby(combo):
            mult *= math.factorial(len(tuple(count)))
        prob = abs(amp) ** 2 / mult
        counts = [0] * m2
        for f in combo:
            counts[flavors[f][0]] += 1
        key = tuple(counts[: net.n_modes])
        raw[key] = raw.get(key, 0.0) + prob

    total = sum(raw.values())
    if abs(total - 1.0) > 1e-9:
        raise PhysicsViolation(f"output probabilities sum to {total}")
    return raw


def _routing_products(transfer: np.ndarray, ports: tuple[int, ...]) -> list[float]:
    prods = []
    for perm in itertools.permutations(range(len(ports))):
        p = 1.0
        for out_mode, j in enumerate(perm):
            p *= abs(transfer[out_mode, ports[j]])
        prods.append(p)
    return prods


def coincidence_baseline(transfer: np.ndarray, ports: tuple[int, ...]) -> float:
    """Per-routing reference probability for the all-ports coincidence."""
    prods = _routing_products(np.asarray(transfer, dtype=complex), ports)
    top = max(prods)
    if top <= 0:
        raise ConfigError("no routing connects the inputs to a full coincidence")
    k = sum(1 for p in prods if p > 1e-12 * top)
    return sum(prods) ** 2 / k


def g2_from_distribution(
    probs: dict[tuple[int, ...], float], transfer: np.ndarray
) -> float:
    """Two-particle coincidence ratio g(2) from an output distribution."""
    t = np.asarray(transfer, dtype=complex)
    if t.shape != (2, 2):
        raise ConfigError("g2 needs a two-mode transfer matrix")
    return probs.get((1, 1), 0.0) / coincidence_baseline(t, (0, 1))


def g3_from_distribution(
    probs: dict[tuple[int, ...], float], transfer: np.ndarray
) -> float:
    """Three-particle coincidence ratio g(3) from an output distribution."""
    t = np.asarray(transfer, dtype=complex)
    if t.shape != (3, 3):
        raise ConfigError("g3 needs a three-mode transfer matrix")
    return probs.get((1, 1, 1), 0.0) / coincidence_baseline(t, (0, 1, 2))


def cascade_three(
    stage1: SplitterMatrix,
    stage2: SplitterMatrix,
    storage_amp: complex = 1.0,
    readout_amp: complex = 1.0,
) -> ModeNetwork:
    """Transfer matrix of two sequential mixing stages on three inputs.

    Particle 1 is written into the spin wave (amplitude `storage_amp`),
    particle 2 interferes with it at `stage1`, particle 3 interferes with the
    surviving spin wave at `stage2`, and the final spin wave is retrieved
    with amplitude `readout_amp`.  Output mode k collects the light leaving
    after stage k (the last being the retrieval).  Light cannot leave before
    it arrives, so input 3 has no amplitude into output 1.
    """
    s = complex(storage_amp)
    rho = complex(readout_amp)
    if abs(s) > 1 + 1e-9 or abs(rho) > 1 + 1e-9:
        raise PhysicsViolation("storage/readout amplitudes cannot exceed unity")
    b1, b2 = stage1, stage2
    t = np.array(
        [
            [b1.r1 * s, b1.t2, 0.0],
            [b2.r1 * b1.t1 * s, b2.r1 * b1.r2, b2.t2],
            [rho * b2.t1 * b1.t1 * s, rho * b2.t1 * b1.r2, rho * b2.r2],
        ],
        dtype=complex,
    )
    return ModeNetwork(t)
