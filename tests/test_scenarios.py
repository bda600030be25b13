import math
from dataclasses import replace

import numpy as np
import pytest

from magnonbs import (
    ConfigError, MediumParams, effective_overlap, fock_oracle, g2_formula, scenarios,
)
from magnonbs.scenarios import (
    DETUNED_MIXING,
    FIG2_CURVES,
    FIG2_OD30,
    Fig2Curve,
    Fig2Grid,
    MixingScenario,
    RESONANT_MIXING,
    delay_overlap,
    fig2_curve,
    fig4_grid,
    ideal_cascade_g3,
    observed_order,
    richardson,
    triangle_check,
)


@pytest.mark.parametrize(
    "change",
    [
        {"od": -5.0},
        {"od": math.nan},
        {"rabi_s_grid": ()},
        {"rabi_s_grid": (2.0, 0.0)},
        {"ref_rabi_s": 0.0},
        {"n_z": 8},
        {"n_z": 81},  # odd: no half grid
        {"n_z": 30},  # its half, 15 cells, is too coarse
    ],
    ids=str,
)
def test_fig2_params_reject_what_the_solver_would_reject(change):
    with pytest.raises(ConfigError):
        replace(FIG2_OD30, **change)


@pytest.mark.parametrize(
    "visibility, unimodal",
    [
        ([0.2, 0.5, 0.9, 0.4, 0.1], True),
        ([0.2, 0.9, 0.9, 0.4], False),  # a plateau at the peak
        ([0.2, 0.2, 0.9, 0.4], False),  # a plateau on the rise
        ([0.2, 0.9, 0.4, 0.4], False),  # a plateau on the fall
        ([0.9, 0.5, 0.2], False),  # a peak at the first drive
        ([0.2, 0.5, 0.9], False),  # a peak at the last drive
        ([0.9], False),  # a single drive
    ],
)
def test_fig2_curve_is_unimodal_only_with_a_strict_interior_peak(visibility, unimodal):
    # Both grids hold the visibility as their overlap, so the curve's is
    # their Richardson value (4 v - v) / 3, within an ulp of it.
    n = len(visibility)
    grid = Fig2Grid(
        n_z=16, t_probe=1.0, efficiency=np.full(n, 0.5), mode_overlap=visibility,
        balance=np.ones(n), spin_abs=np.ones((n, 16)), transmission=0.5, release=1.0,
        loss_gaps={},
    )
    curve = Fig2Curve(tuple(np.arange(1.0, n + 1.0)), grid, grid)
    assert curve.is_unimodal() is unimodal
    assert curve.optimum() == visibility.index(max(visibility))
    assert np.allclose(curve.visibility, visibility, rtol=1e-15, atol=0.0)
    # The columns are computed from the grids at each read: writing to one
    # read leaves the next unchanged, and the grids' arrays are read-only.
    read = curve.mode_overlap
    read[:] = 0.0
    assert np.array_equal(curve.mode_overlap, richardson(grid.mode_overlap, grid.mode_overlap))
    with pytest.raises(ValueError):
        grid.mode_overlap[0] = 0.0


def test_each_curve_column_is_the_richardson_value_of_its_grids(fig2_pairs):
    # Bit for bit, against the expression written out, on the gate's curves.
    for params in FIG2_CURVES:
        curve, _ = fig2_pairs[params.od]
        assert curve.rabi_s == params.rabi_s_grid
        assert (curve.fine.n_z, curve.coarse.n_z) == (params.n_z, params.n_z // 2)
        for name in ("efficiency", "mode_overlap", "balance", "transmission", "release"):
            fine, coarse = getattr(curve.fine, name), getattr(curve.coarse, name)
            want = np.asarray((4.0 * fine - coarse) / 3.0)
            assert np.asarray(getattr(curve, name)).tobytes() == want.tobytes(), name
            assert np.asarray(richardson(fine, coarse)).tobytes() == want.tobytes(), name
        assert np.array_equal(curve.visibility, curve.mode_overlap * curve.balance)


@pytest.mark.parametrize(
    "values, order",
    [
        ((1.3125, 1.0625, 1.0), 2.0),  # differences 0.25 then 0.0625
        ((0.6875, 0.9375, 1.0), 2.0),  # the same, falling toward the fine grid
        ((1.125, 1.0625, 1.0), 0.0),  # equal differences
        ((1.0, 1.25, 1.0), math.nan),  # differences of opposite signs
        ((0.75, 1.0, 0.875), math.nan),
        ((1.25, 1.0, 1.0), math.nan),  # a zero difference
        ((1.0, 1.0, 1.25), math.nan),
        ((math.nan, 1.0, 1.0), math.nan),
    ],
)
def test_observed_order_of_three_grids(values, order):
    got = observed_order(*values)
    assert got == order or (math.isnan(order) and math.isnan(got))


def test_a_curve_on_80_and_40_cells_extrapolates_to_one_on_160_and_80():
    # The scheme is second order, so the Richardson value from n_z 80 and 40
    # agrees with the one from 160 and 80 far better than the raw n_z 80 run
    # does.  Measured at the od-30 optimum drive: within 1.5e-8 (release)
    # and 1.0e-9 (efficiency), where the raw run misses by 1.4e-6
    # (transmission) to 5.1e-5 (release).  Both read the probe at t = 1.1.
    params = replace(FIG2_OD30, rabi_s_grid=(6.5,))
    curve, finer = fig2_curve(params), fig2_curve(replace(params, n_z=160))
    assert (curve.fine.n_z, curve.coarse.n_z, finer.coarse.n_z) == (80, 40, 80)
    assert curve.fine.t_probe == curve.coarse.t_probe == finer.fine.t_probe
    for name in ("efficiency", "mode_overlap", "balance", "visibility",
                 "transmission", "release"):
        reference = np.asarray(getattr(finer, name))
        assert np.abs(getattr(curve, name) - reference).max() <= 1e-7, name
        assert np.abs(getattr(curve.fine, name) - reference).min() > 1e-6, name
    assert np.array_equal(curve.visibility, curve.mode_overlap * curve.balance)
    assert np.array_equal(curve.g2, 1.0 + curve.visibility)


def test_fig3_delay_curve_shapes():
    delays = np.linspace(-4.0, 4.0, 81)
    overlap = delay_overlap(delays, 0.75)
    bump, flat, dip = (g2_formula(overlap, phi) for phi in (0.0, math.pi / 2, math.pi))
    assert bump.shape == delays.shape
    mid = delays.size // 2
    assert delays[mid] == 0.0
    assert bump[mid] == pytest.approx(1.75)
    assert dip[mid] == pytest.approx(0.25)
    assert np.allclose(flat, 1.0, atol=1e-12)
    # Far tails forget the interference in every case.
    for curve in (bump, dip):
        assert curve[0] == pytest.approx(1.0, abs=1e-3)
        assert curve[-1] == pytest.approx(1.0, abs=1e-3)


def test_figure_curves_equal_their_pointwise_values():
    delays = np.linspace(-4.0, 4.0, 81)
    for phi in (0.0, 1.5332, math.pi):
        assert np.array_equal(
            g2_formula(delay_overlap(delays, 0.75), phi),
            [g2_formula(delay_overlap(d, 0.75), phi) for d in delays],
        )
    delays, grid = fig4_grid(7, 2.71, 0.83)
    assert np.array_equal(
        grid,
        [[g2_formula(delay_overlap(a, 0.83), 0.0) * g2_formula(delay_overlap(b, 0.83), 0.0)
          for b in delays] for a in delays],
    )


def test_fig3_phase_curve_is_a_cosine():
    phases = np.linspace(0.0, 2.0 * np.pi, 97)
    g2 = g2_formula(0.75, phases)
    assert g2[0] == pytest.approx(1.75)
    assert g2[-1] == pytest.approx(1.75)
    assert g2.min() == pytest.approx(0.25, abs=1e-6)
    expected = 1.0 + 0.75 * np.cos(phases)
    assert np.allclose(g2, expected, atol=1e-12)


def test_ideal_cascade_value():
    assert ideal_cascade_g3() == pytest.approx(4.0, abs=1e-9)


def test_fig4_grid_is_a_product_surface():
    delays, grid = fig4_grid(5, 3.0, 1.0)
    assert np.array_equal(delays, np.linspace(-3.0, 3.0, 5))
    assert grid.shape == (5, 5)
    assert grid[2, 2] == pytest.approx(4.0)
    col = grid[:, 2] / grid[2, 2]
    row = grid[2, :] / grid[2, 2]
    assert np.allclose(np.outer(col, row) * grid[2, 2], grid, atol=1e-12)


def test_fig2_parameter_sets_are_consistent():
    assert FIG2_OD30.ref_rabi_s in FIG2_OD30.rabi_s_grid
    assert len(FIG2_OD30.rabi_s_grid) >= 5


def test_mixing_scenarios_are_distinct_operating_points():
    assert RESONANT_MIXING.medium.delta == 0.0
    assert DETUNED_MIXING.medium.delta != 0.0
    assert RESONANT_MIXING.label != DETUNED_MIXING.label


def test_triangle_check_deviation_property(mixing_checks):
    tc = mixing_checks[0]
    assert tc.label == RESONANT_MIXING.label
    assert tc.deviation == pytest.approx(abs(tc.g2_oracle - tc.g2_formula))
    assert 0.0 <= tc.overlap <= 1.0
    assert 0.0 <= tc.phi_rt < 2.0 * math.pi


def test_triangle_check_counts_the_storage_run_in_its_loss_gap():
    # At both gate points the storage run's loss gap is below the photon
    # run's, so dropping it from the ledger checks shows nowhere there.  A
    # storage run whose loss quadrature is raised to twice its ledger loss
    # has a gap of 1, far above the mixing runs' gaps.
    (stored,) = scenarios.store([RESONANT_MIXING.stage], scenarios.MIX_N_Z)
    run = stored.trajectory
    run = replace(run, loss_quad=2.0 * run.loss_accum)
    assert run.loss_gap == pytest.approx(1.0)
    tc = triangle_check(RESONANT_MIXING, replace(stored, trajectory=run))
    assert tc.loss_gap == run.loss_gap


# The loss Gram's roundoff: its largest anti-Hermitian entry at the mixing
# points below is 5.6e-17, and this bound is 180 times that.
_LOSS_GRAM_TOL = 1e-14

# Points on both sides of the bosonic-to-fermionic crossover, as (od,
# detuning, storage drive, beamsplit drive, cut): one fermionic, then two
# bosonic.
_CROSSOVER_POINTS = tuple(
    MixingScenario(label, MediumParams(od=od, delta=delta), rabi_s, rabi_bs, t_cut)
    for label, od, delta, rabi_s, rabi_bs, t_cut in (
        ("fermionic", 10.0, 0.0, 6.0, 6.0, 0.5),
        ("bosonic", 10.0, -5.0, 6.0, 3.0, 2.0),
        ("bosonic, deep", 30.0, -20.0, 3.0, 6.0, 2.0),
    )
)


def _per_input(extraction):
    """An extraction's port Grams divided by sqrt(inputs) on both sides."""
    root = np.sqrt([extraction.run_magnon.initial_norm,
                    extraction.run_photon.injected_norm])
    return extraction.grams / np.outer(root, root)


def test_the_gate_points_leave_a_positive_semidefinite_loss_gram(
        mixing_extractions, extractions):
    # Per unit input, L = I - G(0) - G(1) is the Gram of what a passive
    # splitter loses, so it is Hermitian and positive semidefinite.  Its
    # smallest eigenvalue is 0.041 and 0.029 at the gate points (resonant,
    # detuned) and 0.213, 0.019 and 0.017 at the crossover points, stored
    # in one batch.  They add about 0.3 s.
    stored = scenarios.store([p.stage for p in _CROSSOVER_POINTS], scenarios.MIX_N_Z)
    for point, stage in zip(_CROSSOVER_POINTS, stored):
        triangle_check(point, stage)
    resonant, detuned = mixing_extractions
    fermionic, *bosonic = extractions
    for extraction in (resonant, detuned, fermionic, *bosonic):
        grams = _per_input(extraction)
        loss = np.eye(2) - grams[0] - grams[1]
        assert np.abs(loss - loss.conj().T).max() <= _LOSS_GRAM_TOL
        assert np.linalg.eigvalsh(loss).min() >= -_LOSS_GRAM_TOL
    # The check can fail: with the magnon Gram conjugated, L has the
    # eigenvalue -8.8e-3 at the detuned gate point and -0.51 and -0.67 at
    # the bosonic points.  These points lose too little to hide it.
    for extraction in (detuned, *bosonic):
        grams = _per_input(extraction)
        loss = np.eye(2) - grams[0].conj() - grams[1]
        assert np.linalg.eigvalsh(loss).min() < -_LOSS_GRAM_TOL


def test_the_oracle_gives_the_exact_coincidence_at_the_gate_points(
        mixing_checks, mixing_extractions):
    # The two single-input runs fix the two-particle output exactly.  Per
    # unit input, the oracle over the stack (G(0), G(1), L), the loss Gram
    # L = I - G(0) - G(1), gives P(1,1) = N_a M_b + N_b M_a
    # + 2 Re(<e_a,e_b><s_b,s_a>), with N the photon port's norms and M the
    # magnon port's (Legero et al., Appl. Phys. B 77, 797 (2003);
    # Shchesnovich, PRA 91, 013844 (2015)); measured within 3e-17.  With
    # the cross term's sign flipped the closed form misses by 1.5e-3 and
    # 1.6e-2 (resonant, detuned).  Its overlap |<e_a,e_b><s_b,s_a>| /
    # sqrt(N_a N_b M_a M_b) is `effective_overlap`.
    exact = []
    for extraction in mixing_extractions:
        spin, light = _per_input(extraction)
        stack = np.stack([spin, light, np.eye(2) - spin - light])
        p11 = fock_oracle._distribution_from_grams(stack)[(1, 1)]
        apart = (light[0, 0] * spin[1, 1] + light[1, 1] * spin[0, 0]).real
        cross = light[0, 1] * spin[1, 0]
        assert abs(p11 - (apart + 2.0 * cross.real)) <= 1e-12
        assert abs(p11 - (apart - 2.0 * cross.real)) > 1e-3
        norms = light[0, 0].real * light[1, 1].real * spin[0, 0].real * spin[1, 1].real
        assert abs(cross) / math.sqrt(norms) == effective_overlap(extraction)
        exact.append(p11 / apart)
    assert exact == pytest.approx([1.0116, 0.9551], abs=1e-4)
    # The detuned point's exact g2 is on the bosonic side, below 1, where
    # criterion 5 prints 1.0203.
    assert exact[1] < 1.0 < mixing_checks[1].g2_oracle


def _exact_g2(grams):
    """The exact coincidence g2 of two single-input runs' port Grams.

    With run a the stored wave's and run b the probe's, e the photon port's
    outputs (norms N) and s the magnon port's (norms M):
    g2 = 1 + 2 Re(<e_a,e_b><s_b,s_a>) / (N_a M_b + N_b M_a).
    """
    spin, light = grams
    apart = light[0, 0] * spin[1, 1] + light[1, 1] * spin[0, 0]
    return 1.0 + 2.0 * (light[0, 1] * spin[1, 0]).real / apart.real


def test_the_resonant_gate_point_converges_at_second_order(
        mixing_extractions, extractions, monkeypatch):
    # Strang splitting is second order in the grid, so the exact g2's
    # successive differences over n_z 40, 80 and 160 fall 4 times per
    # halving of the cell.  Measured: 4.014 here, 4.000 to 4.014 at four
    # mixing points over n_z 40 to 320.  A first-order error, the coupling
    # scaled by 1 + 2 dt, gives 1.85 here.  Runs in about 0.1 s.
    for n_z in (40, 80):
        monkeypatch.setattr(scenarios, "MIX_N_Z", n_z)
        (stored,) = scenarios.store([RESONANT_MIXING.stage], n_z)
        triangle_check(RESONANT_MIXING, stored)
    runs = (*extractions, mixing_extractions[0])
    assert [e.run_magnon.final_state.z_grid.size for e in runs] == [40, 80, 160]
    g2 = [_exact_g2(e.grams) for e in runs]
    d_coarse, d_fine = np.diff(g2)
    assert abs(d_coarse / d_fine - 4.0) <= 0.05
