"""Release gate: every headline criterion, one pass/fail line each.

The storage sweeps behind criteria 7 and 8 dominate the runtime, so the
curves and the mixing-point runs are computed once per session and shared.
Run with `-s` to see the per-criterion lines as they complete.
"""

from dataclasses import replace

import pytest

from magnonbs import acceptance
from magnonbs.acceptance import (
    LOSS_GAP_TOL,
    CriterionResult,
    _triangle_pair,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)
from magnonbs.scenarios import FIG2_OD150, FIG2_OD30, fig2_curve


@pytest.fixture(scope="session")
def fig2_curves():
    return {
        30.0: fig2_curve(FIG2_OD30),
        150.0: fig2_curve(FIG2_OD150),
    }


@pytest.fixture(scope="session")
def mixing_checks():
    return _triangle_pair()


@pytest.fixture(scope="session")
def report(contract_dir, same_output):
    """Print a criterion's line, then hold it to a pass and to the contract."""
    path = contract_dir / "accept_details.txt"
    details = path.read_text(encoding="utf-8").splitlines()

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


def test_criterion_7_conservation_and_grid(fig2_curves, mixing_checks, report):
    report(criterion_7(curves=fig2_curves, checks=mixing_checks))


def test_criterion_8_efficiency_optimum(fig2_curves, report):
    report(criterion_8(curves=fig2_curves))


def test_criterion_7_fails_on_a_loss_quadrature_gap(fig2_curves, mixing_checks):
    # The ledger's residual closes by construction, so the loss quadrature
    # is what catches a ledger that drifts from the physics.
    curves = dict(fig2_curves)
    curves[30.0] = replace(curves[30.0], max_loss_gap=1.5 * LOSS_GAP_TOL)
    result = criterion_7(curves=curves, checks=mixing_checks)
    assert not result.passed
    assert "worst loss quadrature gap=1.50e-04" in result.details


def test_run_all_charges_each_criterion_the_time_since_the_last(monkeypatch):
    # A clock that moves only when the stubs below say so: the shared
    # solver runs take 10 s and 100 s, each criterion 1 s.
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
    monkeypatch.setattr(acceptance, "fig2_curve", taking(50.0))
    for number in range(1, 9):
        monkeypatch.setattr(acceptance, f"criterion_{number}", criterion(number))
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 9))
    assert [r.runtime for r in results] == [1, 1, 1, 1, 11, 1, 101, 1]
    assert sum(r.runtime for r in results) == now[0]
