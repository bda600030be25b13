"""Release gate: every headline criterion, one pass/fail line each.

The storage sweeps behind criteria 7 and 8 dominate the runtime, so the
curves with their quarter-grid runs and the mixing-point runs are computed
once per session and shared (the `fig2_pairs` and `mixing_checks` fixtures
of conftest.py).  Run with `-s` to see the per-criterion lines as they
complete.
"""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from magnonbs import MediumParams, acceptance, mbloch, scenarios
from magnonbs.acceptance import (
    EXTRAPOLATED_GAP_TOL,
    LOSS_GAP_TOL,
    CriterionResult,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)
from magnonbs.core import C_EFF
from magnonbs.scenarios import DETUNED_MIXING, FIG2_CURVES, RESONANT_MIXING
from output_contract import CONTRACT, DETAILS, revise, table


def assert_as_in_the_contract(results):
    """Fail, printing the moved tokens, unless `results` read as committed."""
    committed = (CONTRACT / DETAILS).read_text(encoding="utf-8")
    details = committed.splitlines()
    for result in results:
        details[result.number - 1] = result.details
    moves = revise(DETAILS, committed, "\n".join(details))[0]
    assert not moves, table(moves)


@pytest.fixture(scope="session")
def report():
    """Print a criterion's line, then hold it to a pass and to the contract."""

    def check(result):
        print()
        print(result.line())
        assert result.passed, result.details
        assert_as_in_the_contract([result])

    return check


def test_criterion_1_coincidence_dip(report):
    report(criterion_1())


def test_criterion_2_fermionized_coincidences(report):
    report(criterion_2())


def test_criterion_3_pair_statistics_formula(report):
    report(criterion_3())


def test_criterion_4_phase_operating_points(report):
    report(criterion_4())


def test_criterion_5_triangle_consistency(mixing_checks, report):
    report(criterion_5(checks=mixing_checks))


def test_criterion_6_triple_correlations(report):
    report(criterion_6())


def test_criterion_7_conservation_and_grid(fig2_pairs, mixing_checks, report):
    report(criterion_7(curves=fig2_pairs, checks=mixing_checks))


def test_criterion_8_efficiency_optimum(fig2_pairs, report):
    report(criterion_8(curves=fig2_pairs))


def test_criterion_7_fails_on_a_loss_quadrature_gap(fig2_pairs, mixing_checks):
    # The ledger closes by construction, so the loss quadrature is what
    # catches a ledger that drifts from the physics.
    curves = dict(fig2_pairs)
    curve, quarter = curves[30.0]
    gaps = {**curve.fine.loss_gaps, "probe": 1.5 * LOSS_GAP_TOL}
    curves[30.0] = (replace(curve, fine=replace(curve.fine, loss_gaps=gaps)), quarter)
    result = criterion_7(curves=curves, checks=mixing_checks)
    assert not result.passed
    assert "worst loss quadrature gap=1.50e-04" in result.details


def test_criterion_7_fails_on_a_coarse_gap_its_fine_twin_does_not_extrapolate(
        fig2_pairs, mixing_checks):
    # A coarser run's raw gap may exceed LOSS_GAP_TOL; it is held with its
    # twin's instead.  Raising the od-150 quarter-grid probe run's gap of
    # -1.2e-3 by 4.5e-6 moves their extrapolation from 1.1e-7 to 1.5e-6.
    curves = dict(fig2_pairs)
    curve, quarter = curves[150.0]
    gaps = dict(quarter.loss_gaps)
    gaps["probe"] += 4.5 * EXTRAPOLATED_GAP_TOL
    curves[150.0] = (curve, replace(quarter, loss_gaps=gaps))
    result = criterion_7(curves=curves, checks=mixing_checks)
    assert not result.passed
    assert "'1.53e-06'] (tol 1e-06)" in result.details


@pytest.mark.parametrize("order", [1.0, 3.0])
def test_criterion_7_fails_on_an_efficiency_order_out_of_its_band(
        order, fig2_pairs, mixing_checks):
    # The quarter-grid efficiency moved so that the successive differences
    # fall by 2**order per halving; nothing else criterion 7 reads moves.
    curves = dict(fig2_pairs)
    curve, quarter = curves[30.0]
    k = curve.optimum()
    fine, coarse = curve.fine.efficiency[k], curve.coarse.efficiency[k]
    moved = coarse + 2.0**order * (coarse - fine)
    curves[30.0] = (curve, replace(quarter, efficiency=[moved]))
    result = criterion_7(curves=curves, checks=mixing_checks)
    assert not result.passed
    assert f"efficiency order at the optima=['{order:.4f}'," in result.details


@pytest.mark.parametrize("error", [0.0, 1.0], ids=["exact", "first order"])
def test_criterion_7_fails_on_a_first_order_coupling_error(error, fig2_pairs, mixing_checks,
                                                           monkeypatch):
    # The coupling scaled by 1 + 2 dt, a 0.4% od error at n_z 80: the
    # observed order of each curve's efficiency falls to 0.99 and 0.98,
    # halving the grid moves it by 1.6e-3 and 1.3e-3, and the quarter-grid
    # runs' extrapolated gaps rise to 1.5e-6 and 2.2e-6.  The mixing runs,
    # made without the error, are the gate's.  At error 0 the patch gives
    # `_local_maps`' arrays bit for bit, so the curves it would step are
    # the gate's own.
    local_maps = mbloch._local_maps

    def coupled(medium, drives, dt_half):
        od = medium.od * (1.0 + error * 4.0 * dt_half) ** 2
        return local_maps(replace(medium, od=od), drives, dt_half)

    if error == 0.0:
        p = FIG2_CURVES[0]
        args = MediumParams(od=p.od), np.array(p.rabi_s_grid), 0.5 / (p.n_z * C_EFF)
        assert np.array_equal(coupled(*args), local_maps(*args))
        curves = fig2_pairs
    else:
        monkeypatch.setattr(mbloch, "_local_maps", coupled)
        curves = {params.od: acceptance.curve_and_quarter(params) for params in FIG2_CURVES}
    result = criterion_7(curves=curves, checks=mixing_checks)
    assert result.passed is (error == 0.0), result.details


def test_the_mixing_points_keep_their_ledger_loss_on_the_loss_quadrature(mixing_checks):
    # The ledger's loss is the input less the emitted and the held norms,
    # and the quadrature sums the decay rates on its own: their gaps here
    # are 8.3e-6 (resonant) and 2.7e-5 (detuned).  An emitted norm counted
    # 0.1% high opens them to 1.4e-2 and 2.5e-2.
    for tc in mixing_checks:
        assert tc.loss_gap <= LOSS_GAP_TOL, tc.label


def test_the_mixing_points_store_in_one_batch_as_each_alone(mixing_checks, monkeypatch):
    # Both points' storage runs step in one solver call, then each point
    # takes one triangle check and one extraction, in gate order; each
    # check equals the one its point's own storage run gives.
    calls = {"store": [], "triangle": [], "extract": []}

    def recording(name, fn, key):
        def call(*args, **kwargs):
            calls[name].append(key(args))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(scenarios, "evolve_batch", recording(
        "store", scenarios.evolve_batch, lambda args: len(args[0])))
    monkeypatch.setattr(acceptance, "triangle_check", recording(
        "triangle", acceptance.triangle_check, lambda args: args[0].label))
    monkeypatch.setattr(scenarios, "extract_matrix", recording(
        "extract", scenarios.extract_matrix, lambda args: args[0]))
    checks = acceptance._triangle_pair()
    assert calls["store"] == [2]
    assert calls["triangle"] == ["resonant", "detuned"]
    assert calls["extract"] == [RESONANT_MIXING.medium, DETUNED_MIXING.medium]
    assert checks == mixing_checks
    monkeypatch.undo()
    for batched, point in zip(checks, (RESONANT_MIXING, DETUNED_MIXING), strict=True):
        (stored,) = scenarios.store([point.stage], scenarios.MIX_N_Z)
        alone = scenarios.triangle_check(point, stored)
        for name in ("g2_oracle", "g2_formula", "overlap", "phi_rt", "loss_gap"):
            assert getattr(batched, name) == pytest.approx(getattr(alone, name),
                                                           rel=1e-12, abs=1e-15)


def test_run_all_passes_every_criterion_as_in_the_contract():
    # The gate as released, every run in this process.
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 9))
    for result in results:
        assert result.passed, result.line()
    assert_as_in_the_contract(results)
    assert multiprocessing.active_children() == []


def test_run_all_charges_each_criterion_the_time_since_the_last(monkeypatch):
    # A clock that moves only when the stubs below say so: the mixing
    # checks take 10 s, each curve with its quarter-grid run 50 s and each
    # criterion 1 s.  Both curves are built after criterion 6, so their
    # time falls on criterion 7.
    now = [0.0]

    class Clock:
        @staticmethod
        def time():
            return now[0]

    def taking(seconds, value=None):
        def stub(*args):
            now[0] += seconds
            return value
        return stub

    def criterion(number):
        def stub(*args):
            now[0] += 1.0
            return CriterionResult(number, f"c{number}", True, "")
        return stub

    monkeypatch.setattr(acceptance, "time", Clock)
    monkeypatch.setattr(acceptance, "_triangle_pair", taking(10.0, ()))
    monkeypatch.setattr(acceptance, "curve_and_quarter", taking(50.0))
    for number in range(1, 9):
        monkeypatch.setattr(acceptance, f"criterion_{number}", criterion(number))
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 9))
    assert [r.runtime for r in results] == [1, 1, 1, 1, 11, 1, 101, 1]
    assert sum(r.runtime for r in results) == now[0]
