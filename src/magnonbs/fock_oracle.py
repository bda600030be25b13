"""Exact few-particle statistics of a lossy linear network.

This is a brute-force reference model, deliberately independent of the wave
solver and of any closed-form interference formula.  The input particles
carry temporal modes with arbitrary pairwise overlaps, the Gram matrix G,
and particle k enters at port p_k of a subunitary transfer matrix T.  Each
detector port d gets a port Gram matrix

    G^(d)_kl = conj(T[d, p_k]) T[d, p_l] G_kl,

and all the loss together acts as one more port L, whose Gram matrix is

    G^(L)_kl = (Vh^+ diag(1 - s^2) Vh)[p_k, p_l] G_kl,    T = U diag(s) Vh.

The probability of an output multiset o = (o_1 <= ... <= o_n) of these M + 1
ports, port q holding m_q particles, is

    P(o) = sum over permutations s, t of n particles of
           prod_j G^(o_j)[s(j), t(j)] / prod_q m_q!

(Tichy, J. Phys. B 47, 103001 (2014); Shchesnovich, PRA 91, 013844
(2015)).  For identical particles G is all ones and P(o) is the familiar
|per|^2 / prod m_q!.  Every pattern is enumerated; nothing is sampled or
approximated, so results are exact to machine precision for up to three
particles.

Coincidence ratios are normalized per distinguishable routing, in
`_coincidence_ratio` alone: for the all-ports-coincidence pattern the
reference value is

    N = per(|T|)^2 / K

with K the number of routings (permutations of particles onto distinct
output ports) carrying nonzero amplitude.  For a two-port splitter this is
(|t1 t2| + |r1 r2|)^2 / 2, which reduces to the familiar 1/2 baseline when
the splitting is balanced, but differs from the distinguishable
probability |t1 t2|^2 + |r1 r2|^2 when the two routings are unequal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    PhysicsViolation,
    SplitterMatrix,
    _check_overlap,
    _require_finite,
    _require_passive,
)

_MAX_PARTICLES = 3


@dataclass(frozen=True)
class ModeNetwork:
    """Square transfer matrix between signal modes, possibly lossy but never amplifying."""

    transfer: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.transfer, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ConfigError("transfer matrix must be square")
        if t.size == 0:
            raise ConfigError("transfer matrix needs at least one mode")
        object.__setattr__(self, "transfer", t)
        _require_finite(self, "transfer")
        _require_passive(t)
        t.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.transfer.shape[0]


@dataclass(frozen=True)
class FockInput:
    """Single particles at a subset of input ports with pairwise overlaps.

    `occupations[p]` is 0 or 1 for each network port; `gram[j, k]` is the
    temporal-mode inner product between the j-th and k-th injected particles
    (ordered by port index).  The Gram matrix must be real, finite, and
    positive semidefinite with unit diagonal.
    """

    occupations: tuple[int, ...]
    gram: np.ndarray

    def __post_init__(self) -> None:
        if any(o not in (0, 1) for o in self.occupations):
            raise ConfigError("port occupations must be 0 or 1")
        occ = tuple(int(o) for o in self.occupations)
        n = sum(occ)
        if n == 0:
            raise ConfigError("at least one particle required")
        if n > _MAX_PARTICLES:
            raise ConfigError(
                f"enumeration supports at most {_MAX_PARTICLES} particles, got {n}"
            )
        if np.iscomplexobj(self.gram):
            raise ConfigError("gram matrix must be real")
        g = np.array(self.gram, dtype=float)
        if g.shape != (n, n):
            raise ConfigError(f"gram matrix must be {n}x{n} for {n} particles")
        object.__setattr__(self, "gram", g)
        _require_finite(self, "gram")
        if np.max(np.abs(g - g.T)) > 1e-9:
            raise ConfigError("gram matrix must be symmetric")
        if np.max(np.abs(np.diag(g) - 1.0)) > 1e-9:
            raise ConfigError("gram matrix needs a unit diagonal")
        low = np.linalg.eigvalsh(g).min()
        if low < -1e-9:
            raise ConfigError(
                f"gram matrix is not positive semidefinite (eigenvalue {low:.3e})"
            )
        g.setflags(write=False)
        object.__setattr__(self, "occupations", occ)

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(p for p, o in enumerate(self.occupations) if o)


def two_photon_input(overlap_i: float) -> FockInput:
    """Two particles, one per port, with intensity overlap `overlap_i`."""
    c = math.sqrt(_check_overlap(overlap_i, "overlap"))
    return FockInput((1, 1), np.array([[1.0, c], [c, 1.0]]))


def three_photon_input(
    i12: float, i23: float, i13: float | None = None
) -> FockInput:
    """Three particles, one per port; i13 defaults to the chain product."""
    i12, i23 = _check_overlap(i12, "i12"), _check_overlap(i23, "i23")
    i13 = i12 * i23 if i13 is None else _check_overlap(i13, "i13")
    c12, c23, c13 = (math.sqrt(v) for v in (i12, i23, i13))
    g = np.array([[1.0, c12, c13], [c12, 1.0, c23], [c13, c23, 1.0]])
    return FockInput((1, 1, 1), g)


def output_distribution(
    net: ModeNetwork, inp: FockInput
) -> dict[tuple[int, ...], float]:
    """Exact output counting distribution, the loss lumped into one port.

    With the (M + 1, n, n) stack of port Grams G^(d) of the M signal ports
    and the loss port (see the module docstring), every multiset o of the
    M + 1 ports has

        P(o) = sum_{s,t} prod_j G^(o_j)[s(j), t(j)] / prod_q m_q!,

    with s, t running over the permutations of the particles and m_q the
    number of particles at port q.  Keys are occupation patterns over the M
    signal ports; a pattern that holds fewer than all the particles means
    the rest were lost.  Probabilities sum to one.

    The patterns, permutations, keys and multiplicities depend on the
    network's mode count and the particle number alone; `_pattern_table`
    builds them once per such shape.  A pattern whose every term is
    exactly zero cannot occur and adds no key.
    """
    if len(inp.occupations) != net.n_modes:
        raise ConfigError(
            f"input has {len(inp.occupations)} ports, network has {net.n_modes}"
        )
    ports = inp.ports
    n = len(ports)
    cols = net.transfer[:, ports]
    signal = cols.conj()[:, :, None] * cols[:, None, :] * inp.gram
    # Vh^+ diag(1 - s^2) Vh is D^+ P_loss D for any unitary dilation D, and
    # positive semidefinite by construction; the equal I - T^+ T is not at
    # roundoff, where a unitary network would gain spurious loss patterns.
    _, s, vh = np.linalg.svd(net.transfer)
    sink = vh.conj().T @ ((1.0 - np.minimum(s, 1.0) ** 2)[:, None] * vh)
    loss = sink[np.ix_(ports, ports)] * inp.gram
    grams = np.concatenate([signal, loss[None]])

    index, perms, keys, mult = _pattern_table(net.n_modes, n)
    # terms[i, a, b] = prod_j grams[o_j, s_a(j), s_b(j)], o = index[i].
    terms = grams[index[:, None, None, :], perms[None, :, None, :],
                  perms[None, None, :, :]].prod(-1)
    possible = terms.any(axis=(1, 2))
    probs = terms.sum(axis=(1, 2)).real / mult
    raw = {key: float(p) for key, p, ok in zip(keys, probs, possible) if ok}

    total = sum(raw.values())
    if abs(total - 1.0) > 1e-9:
        raise PhysicsViolation(f"output probabilities sum to {total}")
    return raw


@functools.lru_cache(maxsize=16)
def _pattern_table(n_modes: int, n: int):
    """Output patterns of n particles over n_modes signal ports and the loss port.

    Returns read-only arrays: the patterns, one sorted multiset of port
    indices per row, the n! permutations of the particles, the patterns'
    keys (occupations of the signal ports, as tuples) and the
    multiplicities prod_q m_q!.  Patterns come in
    `combinations_with_replacement` order, and no two share a key: the
    signal counts fix the loss count.
    """
    patterns = list(itertools.combinations_with_replacement(range(n_modes + 1), n))
    index = np.array(patterns)
    perms = np.array(list(itertools.permutations(range(n))))
    keys = tuple(tuple(o.count(q) for q in range(n_modes)) for o in patterns)
    mult = np.array([math.prod(math.factorial(o.count(q)) for q in set(o))
                     for o in patterns], dtype=float)
    for a in (index, perms, mult):
        a.setflags(write=False)
    return index, perms, keys, mult


def _coincidence_ratio(
    probs: dict[tuple[int, ...], float], transfer: np.ndarray, n: int
) -> float:
    t = np.asarray(transfer, dtype=complex)
    if t.shape != (n, n):
        raise ConfigError(f"g{n} needs a {n}-mode transfer matrix")
    prods = [
        math.prod(abs(t[out_mode, j]) for out_mode, j in enumerate(perm))
        for perm in itertools.permutations(range(n))
    ]
    top = max(prods)
    if top <= 0:
        raise ConfigError("no routing connects the inputs to a full coincidence")
    k = sum(1 for p in prods if p > 1e-12 * top)
    return probs.get((1,) * n, 0.0) / (sum(prods) ** 2 / k)


def g2_from_distribution(
    probs: dict[tuple[int, ...], float], transfer: np.ndarray
) -> float:
    """Two-particle coincidence ratio g(2) from an output distribution."""
    return _coincidence_ratio(probs, transfer, 2)


def g3_from_distribution(
    probs: dict[tuple[int, ...], float], transfer: np.ndarray
) -> float:
    """Three-particle coincidence ratio g(3) from an output distribution."""
    return _coincidence_ratio(probs, transfer, 3)


def cascade_three(stage1: SplitterMatrix, stage2: SplitterMatrix) -> ModeNetwork:
    """Transfer matrix of two sequential mixing stages on three inputs.

    Particle 1 is written into the spin wave, particle 2 interferes with it
    at `stage1`, particle 3 interferes with the surviving spin wave at
    `stage2`, and the final spin wave is retrieved.  Output mode k collects
    the light leaving after stage k (the last being the retrieval).  Light
    cannot leave before it arrives, so input 3 has no amplitude into
    output 1.
    """
    b1, b2 = stage1, stage2
    t = np.array(
        [
            [b1.r1, b1.t2, 0.0],
            [b2.r1 * b1.t1, b2.r1 * b1.r2, b2.t2],
            [b2.t1 * b1.t1, b2.t1 * b1.r2, b2.r2],
        ],
        dtype=complex,
    )
    return ModeNetwork(t)
