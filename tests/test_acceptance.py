"""Release gate: every headline criterion, one pass/fail line each.

The storage sweeps behind criteria 7 and 8 dominate the runtime, so the
curve pairs and the mixing-point runs are computed once per session and
shared (the `fig2_pairs` and `mixing_checks` fixtures of conftest.py).  Run with `-s` to see the per-criterion lines as they complete.
"""

import concurrent.futures
import functools
import multiprocessing
from dataclasses import replace
from types import SimpleNamespace

import pytest

from magnonbs import acceptance, scenarios
from magnonbs.acceptance import (
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
from magnonbs.scenarios import DETUNED_MIXING, RESONANT_MIXING


def accept_details(contract_dir):
    path = contract_dir / "accept_details.txt"
    return path.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="session")
def report(contract_dir, same_output):
    """Print a criterion's line, then hold it to a pass and to the contract."""
    details = accept_details(contract_dir)

    def check(result):
        print()
        print(result.line())
        assert result.passed, result.details
        same_output(result.details, details[result.number - 1])

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
    report(criterion_7(pairs=fig2_pairs, checks=mixing_checks))


def test_criterion_8_efficiency_optimum(fig2_pairs, report):
    report(criterion_8(pairs=fig2_pairs))


def test_criterion_7_fails_on_a_loss_quadrature_gap(fig2_pairs, mixing_checks):
    # The ledger's residual closes by construction, so the loss quadrature
    # is what catches a ledger that drifts from the physics.
    pairs = dict(fig2_pairs)
    fine, coarse = pairs[30.0]
    pairs[30.0] = (replace(fine, max_loss_gap=1.5 * LOSS_GAP_TOL), coarse)
    result = criterion_7(pairs=pairs, checks=mixing_checks)
    assert not result.passed
    assert "worst loss quadrature gap=1.50e-04" in result.details


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
        for name in ("g2_oracle", "g2_formula", "overlap", "phi_rt", "residual", "loss_gap"):
            assert getattr(batched, name) == pytest.approx(getattr(alone, name),
                                                           rel=1e-12, abs=1e-15)


def test_run_all_passes_every_criterion_as_in_the_contract(contract_dir, same_output):
    # The gate as released: the deep curve pair built in the worker process.
    results = acceptance.run_all()
    details = accept_details(contract_dir)
    assert [r.number for r in results] == list(range(1, 9))
    for result in results:
        assert result.passed, result.line()
        same_output(result.details, details[result.number - 1])
    assert multiprocessing.active_children() == []


def test_run_all_charges_each_criterion_the_time_since_the_last(monkeypatch):
    # A clock that moves only when the stubs below say so: the mixing
    # checks take 10 s, each curve pair 50 s and each criterion 1 s.  The
    # pool runs its one task in this process when its result is asked for,
    # so the deep pair's time falls on criterion 7, which waits for it.
    now = [0.0]
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pools.append("closed")
            return False

        def submit(self, fn, *args):
            return SimpleNamespace(result=functools.partial(fn, *args))

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
    monkeypatch.setattr(acceptance, "curve_pair", taking(50.0))
    for number in range(1, 9):
        monkeypatch.setattr(acceptance, f"criterion_{number}", criterion(number))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    results = acceptance.run_all()
    assert pools == [1, "closed"]
    assert [r.number for r in results] == list(range(1, 9))
    assert [r.runtime for r in results] == [1, 1, 1, 1, 11, 1, 101, 1]
    assert sum(r.runtime for r in results) == now[0]
