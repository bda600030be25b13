import math
from dataclasses import replace

import numpy as np
import pytest

from magnonbs import ConfigError, g2_formula, scenarios
from magnonbs.scenarios import (
    DETUNED_MIXING,
    FIG2_OD30,
    Fig2Curve,
    RESONANT_MIXING,
    delay_envelope,
    fig3_delay_curve,
    fig4_grid,
    ideal_cascade_g3,
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
    n = len(visibility)
    curve = Fig2Curve(
        rabi_s=np.arange(1.0, n + 1.0), efficiency=np.full(n, 0.5),
        mode_overlap=visibility, balance=np.ones(n), visibility=visibility,
        spin_abs=np.ones((n, 16)), transmission=0.5, release=1.0,
        max_residual=0.0, max_loss_gap=0.0,
    )
    assert curve.is_unimodal() is unimodal
    assert curve.visibility[curve.optimum()] == max(visibility)
    with pytest.raises(ValueError):
        curve.visibility[0] = 0.0


def test_fig3_delay_curve_shapes():
    delays = np.linspace(-4.0, 4.0, 81)
    bump = fig3_delay_curve(0.0, delays, 0.75)
    flat = fig3_delay_curve(math.pi / 2, delays, 0.75)
    dip = fig3_delay_curve(math.pi, delays, 0.75)
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
    env = delay_envelope(0.75)
    for phi in (0.0, 1.5332, math.pi):
        assert np.array_equal(
            fig3_delay_curve(phi, delays, 0.75),
            [g2_formula(env(d), phi) for d in delays],
        )
    delays, grid = fig4_grid(7, 2.71, 0.83)
    env = delay_envelope(0.83)
    assert np.array_equal(
        grid,
        [[g2_formula(env(a), 0.0) * g2_formula(env(b), 0.0) for b in delays]
         for a in delays],
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
    run = replace(run, loss_quad=2.0 * run.final_state.loss_accum)
    assert run.loss_gap == pytest.approx(1.0)
    tc = triangle_check(RESONANT_MIXING, replace(stored, trajectory=run))
    assert tc.loss_gap == run.loss_gap


# The loss Gram's roundoff: its largest anti-Hermitian entry at the gate's
# mixing points is 2.2e-17, and this bound is 450 times that.
_LOSS_GRAM_TOL = 1e-14


def _per_input(extraction):
    """An extraction's port Grams divided by sqrt(inputs) on both sides."""
    root = np.sqrt([extraction.run_magnon.final_state.initial_norm,
                    extraction.run_photon.final_state.injected_norm])
    return extraction.grams / np.outer(root, root)


def test_the_gate_points_leave_a_positive_semidefinite_loss_gram(mixing_extractions):
    # Per unit input, L = I - G(0) - G(1) is the Gram of what a passive
    # splitter loses, so it is Hermitian and positive semidefinite.  At the
    # gate points its smallest eigenvalue is 0.041 (resonant) and 0.029
    # (detuned).
    resonant, detuned = mixing_extractions
    for extraction in (resonant, detuned):
        grams = _per_input(extraction)
        loss = np.eye(2) - grams[0] - grams[1]
        assert np.abs(loss - loss.conj().T).max() <= _LOSS_GRAM_TOL
        assert np.linalg.eigvalsh(loss).min() >= -_LOSS_GRAM_TOL
    # The check can fail: with the detuned point's magnon Gram conjugated,
    # L has the eigenvalue -8.8e-3.  The point loses too little to hide it.
    loss = np.eye(2) - grams[0].conj() - grams[1]
    assert np.linalg.eigvalsh(loss).min() < -_LOSS_GRAM_TOL


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
