import itertools
import math

import numpy as np
import pytest

from magnonbs import (
    ConfigError,
    SplitterMatrix,
    cascade_three,
    dilate,
    g2_from_distribution,
    g3_from_distribution,
    network_from_splitter,
    output_distribution,
    permanent,
    three_photon_input,
    two_photon_input,
)
from magnonbs.fock_oracle import FockInput, coincidence_baseline


def brute_permanent(m):
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= m[i, j]
        total += p
    return total


def test_permanent_small_cases():
    assert permanent(np.zeros((0, 0), dtype=complex)) == pytest.approx(1.0)
    assert permanent(np.array([[3.5 + 1j]])) == pytest.approx(3.5 + 1j)
    m2 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert permanent(m2) == pytest.approx(10.0)


def test_permanent_matches_brute_force():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert permanent(m) == pytest.approx(brute_permanent(m), abs=1e-9)


def balanced_unitary():
    r = math.sqrt(0.5)
    return SplitterMatrix(t1=r, r1=1j * r, t2=r, r2=1j * r)


def test_hom_dip_frozen():
    dist = output_distribution(
        network_from_splitter(balanced_unitary()), two_photon_input(1.0)
    )
    assert dist.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert dist[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(0, 2)] == pytest.approx(0.5, abs=1e-12)


def test_distribution_sums_to_one_even_with_loss():
    b = SplitterMatrix(t1=0.4, r1=0.3, t2=0.35, r2=0.25)
    for i_val in (0.0, 0.4, 1.0):
        dist = output_distribution(
            network_from_splitter(b), two_photon_input(i_val)
        )
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= -1e-12 for p in dist.values())


def test_unitary_network_loses_nothing():
    dist = output_distribution(
        network_from_splitter(balanced_unitary()),
        two_photon_input(0.7),
    )
    # Both particles stay in the signal modes: patterns that hold fewer
    # than two carry no weight.
    kept = sum(p for key, p in dist.items() if sum(key) == 2)
    assert kept == pytest.approx(1.0, abs=1e-12)


def test_fermionized_pair_at_zero_phase():
    # All-real amplitudes with full overlap: coincidences land exactly at
    # twice the distinguishable reference, whatever the magnitudes.
    b = SplitterMatrix(
        t1=math.sqrt(0.15),
        r1=math.sqrt(0.20),
        t2=math.sqrt(0.26),
        r2=math.sqrt(0.22),
    )
    dist = output_distribution(network_from_splitter(b), two_photon_input(1.0))
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
    net = network_from_splitter(b)
    quantum = output_distribution(net, two_photon_input(0.0))
    classical = _routed_independently(b.matrix, (0, 1))
    assert set(quantum) == set(classical)
    for key in quantum:
        assert quantum[key] == pytest.approx(classical[key], abs=1e-9)


def test_distinguishable_g2_is_one_plus_imbalance_squared():
    sym = SplitterMatrix(t1=0.5, r1=0.5, t2=0.5, r2=0.5)
    dist = output_distribution(network_from_splitter(sym), two_photon_input(0.0))
    assert g2_from_distribution(dist, sym.matrix) == pytest.approx(1.0, abs=1e-12)

    skew = SplitterMatrix(t1=0.6, r1=0.2, t2=0.6, r2=0.2)
    a, b = 0.36, 0.04
    rho = (a - b) / (a + b)
    dist = output_distribution(network_from_splitter(skew), two_photon_input(0.0))
    assert g2_from_distribution(dist, skew.matrix) == pytest.approx(
        1.0 + rho**2, abs=1e-12
    )


def test_exchange_symmetry_of_the_two_input_ports():
    b = SplitterMatrix(t1=0.5, r1=0.4j, t2=0.45, r2=0.3)
    swapped = SplitterMatrix(t1=b.t2, r1=b.r2, t2=b.t1, r2=b.r1)
    d1 = output_distribution(network_from_splitter(b), two_photon_input(0.6))
    d2 = output_distribution(
        network_from_splitter(swapped), two_photon_input(0.6)
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
            network_from_splitter(b), two_photon_input(i_val)
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
        ).mode_amplitudes()
    with pytest.raises(ConfigError):
        two_photon_input(1.5)


def test_three_photon_input_defaults_to_chain_overlap():
    inp = three_photon_input(0.49, 0.25)
    assert inp.gram[0, 2] == pytest.approx(math.sqrt(0.49 * 0.25))
    explicit = three_photon_input(0.49, 0.25, i13=0.09)
    assert explicit.gram[0, 2] == pytest.approx(0.3)


def test_dilation_is_unitary_with_transfer_block():
    b = SplitterMatrix(t1=0.4, r1=0.3j, t2=0.35, r2=0.25)
    net = network_from_splitter(b)
    d = dilate(net)
    eye = np.eye(d.shape[0])
    assert np.abs(d.conj().T @ d - eye).max() < 1e-12
    assert np.abs(d[:2, :2] - net.transfer).max() < 1e-12


def ideal_cascade():
    stage = SplitterMatrix(t1=0.5, r1=0.5, t2=0.5, r2=0.5)
    return cascade_three(stage, stage)


def test_cascade_corner_values():
    # The sequential cascade factorizes as (1 + I12)(1 + I23) at three
    # corners.  At (I12, I23) = (0, 1) it does not: after a
    # no-interference first stage the stored magnon is an even mixture of
    # particle-1 and particle-2 flavor, and particle 3 (identical to 2
    # only) interferes with just half of it, giving 1.5 instead of 2.
    net = ideal_cascade()
    assert net.transfer.shape == (3, 3)
    cases = (
        ((1.0, 1.0), 4.0),
        ((0.0, 0.0), 1.0),
        ((1.0, 0.0), 2.0),
        ((0.0, 1.0), 1.5),
    )
    for (i12, i23), expected in cases:
        dist = output_distribution(
            net, three_photon_input(i12, i23, i12 * i23)
        )
        g3 = g3_from_distribution(dist, net.transfer)
        assert g3 == pytest.approx(expected, abs=1e-9)


def test_correlation_helpers_check_matrix_shape():
    b = balanced_unitary()
    dist = output_distribution(network_from_splitter(b), two_photon_input(1.0))
    with pytest.raises(ConfigError):
        g2_from_distribution(dist, np.eye(3))
    with pytest.raises(ConfigError):
        g3_from_distribution(dist, np.eye(2))


def test_coincidence_baseline_rejects_disconnected_routing():
    with pytest.raises(ConfigError):
        coincidence_baseline(np.array([[1.0, 0.0], [0.0, 0.0]]), (0, 1))
