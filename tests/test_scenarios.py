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


def test_triangle_check_counts_the_storage_run_in_its_loss_gap(monkeypatch):
    # At both gate points the storage run's loss gap is below the photon
    # run's, so dropping it from the ledger checks shows nowhere there.  A
    # storage run whose loss quadrature is raised to twice its ledger loss
    # has a gap of 1, far above the mixing runs' gaps.
    store_mixing = scenarios.store_mixing
    gaps = []

    def skewed(points):
        (stored,) = store_mixing(points)
        run = stored.trajectory
        run = replace(run, loss_quad=2.0 * run.final_state.loss_accum)
        gaps.append(run.loss_gap)
        return [replace(stored, trajectory=run)]

    monkeypatch.setattr(scenarios, "store_mixing", skewed)
    tc = triangle_check(RESONANT_MIXING)
    assert gaps == [pytest.approx(1.0)]
    assert tc.loss_gap == gaps[0]
