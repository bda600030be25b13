import itertools
import math

import numpy as np
import pytest

from magnonbs import (
    ConfigError,
    ModeNetwork,
    SplitterMatrix,
    cascade_three,
    g2_from_distribution,
    g3_from_distribution,
    output_distribution,
    three_photon_input,
    two_photon_input,
)
from magnonbs.fock_oracle import FockInput


def brute_permanent(m):
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= m[i, j]
        total += p
    return total


def balanced_unitary():
    r = math.sqrt(0.5)
    return SplitterMatrix(t1=r, r1=1j * r, t2=r, r2=1j * r)


def test_hom_dip_frozen():
    dist = output_distribution(
        ModeNetwork(balanced_unitary().matrix), two_photon_input(1.0)
    )
    assert dist.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert dist[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(0, 2)] == pytest.approx(0.5, abs=1e-12)


def test_distribution_sums_to_one_even_with_loss():
    b = SplitterMatrix(t1=0.4, r1=0.3, t2=0.35, r2=0.25)
    for i_val in (0.0, 0.4, 1.0):
        dist = output_distribution(
            ModeNetwork(b.matrix), two_photon_input(i_val)
        )
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= -1e-12 for p in dist.values())


def test_unitary_network_loses_nothing():
    dist = output_distribution(
        ModeNetwork(balanced_unitary().matrix),
        two_photon_input(0.7),
    )
    # Both particles stay in the signal modes: no pattern holds fewer than
    # two, not even at roundoff.
    assert set(dist) == {(2, 0), (1, 1), (0, 2)}
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_fermionized_pair_at_zero_phase():
    # All-real amplitudes with full overlap: coincidences land exactly at
    # twice the distinguishable reference, whatever the magnitudes.
    b = SplitterMatrix(
        t1=math.sqrt(0.15),
        r1=math.sqrt(0.20),
        t2=math.sqrt(0.26),
        r2=math.sqrt(0.22),
    )
    dist = output_distribution(ModeNetwork(b.matrix), two_photon_input(1.0))
    assert g2_from_distribution(dist, b.matrix) == pytest.approx(2.0, abs=1e-9)


def _routed_independently(transfer, ports):
    """Signal-mode counts of distinguishable particles routed one by one.

    The particle entering port p reaches output q with probability
    |T[q, p]|^2 and is lost with the remaining probability; no dilation is
    involved.
    """
    n_modes = transfer.shape[0]
    out = {}
    for routes in itertools.product(range(n_modes + 1), repeat=len(ports)):
        prob = 1.0
        counts = [0] * n_modes
        for p, q in zip(ports, routes):
            reach = np.abs(transfer[:, p]) ** 2
            if q == n_modes:
                prob *= 1.0 - reach.sum()
            else:
                prob *= reach[q]
                counts[q] += 1
        key = tuple(counts)
        out[key] = out.get(key, 0.0) + prob
    return out


def test_distinguishable_pair_reduces_to_classical_routing():
    b = SplitterMatrix(t1=0.5, r1=0.4j, t2=0.45, r2=0.3 * np.exp(1j))
    net = ModeNetwork(b.matrix)
    quantum = output_distribution(net, two_photon_input(0.0))
    classical = _routed_independently(b.matrix, (0, 1))
    assert set(quantum) == set(classical)
    for key in quantum:
        assert quantum[key] == pytest.approx(classical[key], abs=1e-9)


def test_distinguishable_g2_is_one_plus_imbalance_squared():
    sym = SplitterMatrix(t1=0.5, r1=0.5, t2=0.5, r2=0.5)
    dist = output_distribution(ModeNetwork(sym.matrix), two_photon_input(0.0))
    assert g2_from_distribution(dist, sym.matrix) == pytest.approx(1.0, abs=1e-12)

    skew = SplitterMatrix(t1=0.6, r1=0.2, t2=0.6, r2=0.2)
    a, b = 0.36, 0.04
    rho = (a - b) / (a + b)
    dist = output_distribution(ModeNetwork(skew.matrix), two_photon_input(0.0))
    assert g2_from_distribution(dist, skew.matrix) == pytest.approx(
        1.0 + rho**2, abs=1e-12
    )


def test_exchange_symmetry_of_the_two_input_ports():
    b = SplitterMatrix(t1=0.5, r1=0.4j, t2=0.45, r2=0.3)
    swapped = SplitterMatrix(t1=b.t2, r1=b.r2, t2=b.t1, r2=b.r1)
    d1 = output_distribution(ModeNetwork(b.matrix), two_photon_input(0.6))
    d2 = output_distribution(
        ModeNetwork(swapped.matrix), two_photon_input(0.6)
    )
    for key, p in d1.items():
        assert p == pytest.approx(d2[key[::-1]], abs=1e-12)


def _random_passive(rng):
    # Frobenius norm below one guarantees passivity with any phases.
    s1, s2 = rng.uniform(0.1, 0.45, size=2)
    a1, a2 = rng.uniform(0.15, math.pi / 2 - 0.15, size=2)
    p = rng.uniform(0.0, 2.0 * math.pi, size=4)
    return SplitterMatrix(
        t1=math.sqrt(s1) * math.cos(a1) * np.exp(1j * p[0]),
        r1=math.sqrt(s1) * math.sin(a1) * np.exp(1j * p[1]),
        t2=math.sqrt(s2) * math.cos(a2) * np.exp(1j * p[2]),
        r2=math.sqrt(s2) * math.sin(a2) * np.exp(1j * p[3]),
    )


def test_oracle_matches_closed_form_over_random_sweep():
    # For any passive matrix and overlap I the coincidence ratio is
    #   g2 = (1 + I cos phi) + (1 - I cos phi) rho^2,
    # with rho the (a-b)/(a+b) magnitude imbalance of a=|t1 t2|,
    # b=|r1 r2|.  One hundred seeded draws pin the oracle to it.
    rng = np.random.default_rng(20260822)
    for _ in range(100):
        b = _random_passive(rng)
        i_val = rng.uniform(0.0, 1.0)
        dist = output_distribution(
            ModeNetwork(b.matrix), two_photon_input(i_val)
        )
        got = g2_from_distribution(dist, b.matrix)
        a = abs(b.t1 * b.t2)
        bb = abs(b.r1 * b.r2)
        phi = np.angle(b.r1 * b.r2) - np.angle(b.t1 * b.t2)
        rho = (a - bb) / (a + bb)
        expected = (1.0 + i_val * math.cos(phi)) + (
            1.0 - i_val * math.cos(phi)
        ) * rho**2
        assert got == pytest.approx(expected, abs=1e-9)


def _halmos_dilation(t):
    """[[T, (1 - T T^+)^1/2], [(1 - T^+ T)^1/2, -T^+]], a unitary dilation.

    The oracle builds no dilation: it lumps the loss into one port.  The
    signal-mode statistics do not depend on which dilation absorbs the loss.
    """

    def psd_sqrt(m):
        vals, vecs = np.linalg.eigh(m)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    eye = np.eye(t.shape[0])
    th = t.conj().T
    return np.block([[t, psd_sqrt(eye - t @ th)], [psd_sqrt(eye - th @ t), -th]])


def _flavour_distribution(transfer, gram):
    """Output distribution by expanding each particle over internal modes.

    Particle j's temporal mode has amplitudes amps[j, k] on an orthonormal
    basis (from the eigenvectors of the Gram matrix).  One flavour is a
    (dilated mode, basis state) pair; each multiset of flavours is a state
    of identical bosons with probability |per|^2 / prod(multiplicity!).
    """
    n_modes, n = transfer.shape[0], gram.shape[0]
    d = _halmos_dilation(transfer)
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > 1e-14
    amps = vecs[:, keep] * np.sqrt(vals[keep])
    flavours = [(q, k) for q in range(2 * n_modes) for k in range(amps.shape[1])]
    out = {}
    for combo in itertools.combinations_with_replacement(flavours, n):
        sub = np.array([[d[q, j] * amps[j, k] for j in range(n)] for q, k in combo])
        mult = math.prod(math.factorial(combo.count(f)) for f in set(combo))
        key = tuple(sum(q == mode for q, _ in combo) for mode in range(n_modes))
        out[key] = out.get(key, 0.0) + abs(brute_permanent(sub)) ** 2 / mult
    return out


def _random_gram(rng, n):
    # Rows of unit vectors in n + 1 dimensions: real, PSD, unit diagonal.
    v = rng.normal(size=(n, n + 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v @ v.T


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_lossy(rng, n):
    # U1 diag(s) U2 with singular values in [0.2, 1]: passive, often lossy.
    return (
        _random_unitary(rng, n)
        @ np.diag(rng.uniform(0.2, 1.0, size=n))
        @ _random_unitary(rng, n)
    )


def test_partial_overlap_matches_the_internal_mode_expansion():
    # Partly distinguishable particles on random passive networks, on
    # lossless ones and on cascades (a structural zero plus loss), each
    # pattern against an expansion over internal modes with a dilation.
    # Networks with more modes than particles come after ones with as many,
    # so a pattern table reused across mode counts changes the keys.
    rng = np.random.default_rng(20261018)
    cases = [(_random_lossy(rng, n), _random_gram(rng, n)) for n in (2, 3) * 6]
    cases += [(_random_unitary(rng, n), _random_gram(rng, n)) for n in (2, 3) * 3]
    # The second cascade loses amplitude in storage (0.9j) and readout (0.8).
    lossy = cascade_three(_random_passive(rng), _random_passive(rng)).transfer
    cascades = [
        ideal_cascade().transfer,
        np.diag([1, 1, 0.8]) @ lossy @ np.diag([0.9j, 1, 1]),
    ]
    cases += [(transfer, _random_gram(rng, 3)) for transfer in cascades * 2]
    cases += [(_random_lossy(rng, m), _random_gram(rng, n))
              for m, n in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3))]
    for transfer, gram in cases:
        m, n = transfer.shape[0], gram.shape[0]
        occupations = (1,) * n + (0,) * (m - n)
        got = output_distribution(ModeNetwork(transfer), FockInput(occupations, gram))
        ref = _flavour_distribution(transfer, gram)
        for key in set(got) | set(ref):
            assert got.get(key, 0.0) == pytest.approx(ref.get(key, 0.0), abs=1e-12)


def test_patterns_that_cannot_occur_add_no_key():
    # A lossless identity network leaves each particle in its own port.
    dist = output_distribution(ModeNetwork(np.eye(2)), two_photon_input(0.3))
    assert dist == {(1, 1): 1.0}


def test_fock_input_guards():
    with pytest.raises(ConfigError):
        FockInput((1, 2), np.eye(2))
    with pytest.raises(ConfigError):
        FockInput((0, 0), np.zeros((0, 0)))
    with pytest.raises(ConfigError):
        FockInput((1, 1, 1, 1), np.eye(4))
    with pytest.raises(ConfigError):
        FockInput((1, 1), np.array([[1.0, 0.2], [0.4, 1.0]]))
    with pytest.raises(ConfigError):
        FockInput((1, 1), np.array([[1.0, 0.5], [0.5, 2.0]]))
    with pytest.raises(ConfigError):
        # Unit diagonal but not positive semidefinite.
        FockInput(
            (1, 1, 1),
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
        )
    # Overlaps must lie in [0, 1 + 1e-9], the same range g2_formula holds.
    for bad in (1.5, -1e-7, 1.0 + 5e-7, math.nan):
        with pytest.raises(ConfigError):
            two_photon_input(bad)
        with pytest.raises(ConfigError):
            three_photon_input(bad, 0.5)
        with pytest.raises(ConfigError):
            three_photon_input(0.5, bad)
    # Roundoff above 1 is clipped to 1.
    assert two_photon_input(1.0 + 5e-10).gram[0, 1] == 1.0
    assert np.all(three_photon_input(1.0 + 5e-10, 1.0 + 5e-10).gram == 1.0)
    with pytest.raises(ConfigError):
        FockInput((1, 1.5), np.eye(2))
    with pytest.raises(ConfigError):
        # Hermitian, but the oracle takes real overlaps only.
        FockInput((1, 1), np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
    with pytest.raises(ConfigError):
        FockInput((1, 1), np.array([[1.0, math.nan], [math.nan, 1.0]]))
    for i13 in (-0.5, -1e-7, 2.0, 1.0 + 5e-7, math.nan):
        with pytest.raises(ConfigError):
            three_photon_input(0.5, 0.5, i13)
    with pytest.raises(ConfigError):
        ModeNetwork(np.zeros((0, 0)))


def test_three_photon_input_defaults_to_chain_overlap():
    inp = three_photon_input(0.49, 0.25)
    assert inp.gram[0, 2] == pytest.approx(math.sqrt(0.49 * 0.25))
    explicit = three_photon_input(0.49, 0.25, i13=0.09)
    assert explicit.gram[0, 2] == pytest.approx(0.3)


def ideal_cascade():
    stage = SplitterMatrix(t1=0.5, r1=0.5, t2=0.5, r2=0.5)
    return cascade_three(stage, stage)


def test_cascade_corner_values():
    # The sequential cascade factorizes as (1 + I12)(1 + I23) at three
    # corners.  At (I12, I23) = (0, 1) it does not: after a
    # no-interference first stage the stored magnon is an even mixture of
    # particle-1 and particle-2 flavor, and particle 3 (identical to 2
    # only) interferes with just half of it, giving 1.5 instead of 2.  At
    # partial overlap it falls below the product too: 2.125 against 2.25 at
    # I12 = I23 = 0.5.
    net = ideal_cascade()
    assert net.transfer.shape == (3, 3)
    cases = (
        ((1.0, 1.0), 4.0),
        ((0.0, 0.0), 1.0),
        ((1.0, 0.0), 2.0),
        ((0.0, 1.0), 1.5),
        ((0.5, 0.5), 2.125),
        ((0.75, 0.3), 2.2375),
        ((0.2, 0.9), 1.92),
    )
    for (i12, i23), expected in cases:
        dist = output_distribution(
            net, three_photon_input(i12, i23, i12 * i23)
        )
        g3 = g3_from_distribution(dist, net.transfer)
        assert g3 == pytest.approx(expected, abs=1e-9)


def test_correlation_helpers_check_matrix_shape():
    b = balanced_unitary()
    dist = output_distribution(ModeNetwork(b.matrix), two_photon_input(1.0))
    with pytest.raises(ConfigError):
        g2_from_distribution(dist, np.eye(3))
    with pytest.raises(ConfigError):
        g3_from_distribution(dist, np.eye(2))


def test_g2_from_distribution_rejects_disconnected_routing():
    # No routing puts one particle at each output, so g2 has no baseline.
    with pytest.raises(ConfigError, match="no routing"):
        g2_from_distribution({}, np.array([[1.0, 0.0], [0.0, 0.0]]))
