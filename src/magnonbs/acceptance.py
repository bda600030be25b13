"""Release gate: one check per headline claim, with stated tolerances.

Each criterion function returns a CriterionResult carrying the measured
values, the tolerance it was held to, and a pass flag.  `run_all` runs
them in order in one process.  The conservation and figure criteria, 7
and 8, share the two storage-drive curves, each extrapolated from two
grids by `richardson`, as criterion 7's loss gaps are, and a run of each
curve's optimum on a third, coarser grid for `observed_order`.  The pytest
wrapper and the command-line `accept` subcommand both call into this
module, so the numbers printed in either place are the same.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import SplitterMatrix
from .fock_oracle import (
    ModeNetwork,
    g2_from_distribution,
    output_distribution,
    two_photon_input,
)
from .scenarios import (
    DETUNED_MIXING,
    FIG2_CURVES,
    FIG4_I_PEAK,
    FIG4_SPAN,
    FIG4_STEPS,
    MIX_N_Z,
    PHASE_CAL_RABI,
    PHASE_FWHM,
    PHASE_POINTS,
    Fig2Curve,
    Fig2Grid,
    Fig2Params,
    RESONANT_MIXING,
    delay_envelope,
    fig2_curve,
    fig2_grid,
    fig4_grid,
    ideal_cascade_g3,
    observed_order,
    richardson,
    store,
    triangle_check,
)
from .splitter import fold_phase, phi_rt_analytic, phi_rt_sweep, tau_from_fwhm
from .stats import classical_bounds, g2_formula, g3_formula


@dataclass(frozen=True)
class CriterionResult:
    number: int
    label: str
    passed: bool
    details: str
    # Seconds since the previous criterion ended, set by `run_all`.
    runtime: float = 0.0

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"[{flag}] criterion {self.number}: {self.label} "
            f"({self.runtime:.1f}s) -- {self.details}"
        )


def criterion_1() -> CriterionResult:
    """Balanced lossless splitter with full overlap: exact coincidence dip."""
    root = math.sqrt(0.5)
    b = SplitterMatrix(t1=root, r1=1j * root, t2=root, r2=1j * root)
    dist = output_distribution(ModeNetwork(b.matrix), two_photon_input(1.0))
    p11 = dist.get((1, 1), 0.0)
    g2 = g2_formula(1.0, math.pi)
    ok = p11 <= 1e-9 and abs(g2) <= 1e-9
    return CriterionResult(
        1,
        "coincidence dip at the Hermitian balanced splitter",
        bool(ok),
        f"P(1,1)={p11:.3e} (tol 1e-9), g2(I=1,phi=pi)={g2:.3e} (tol 1e-9)",
    )


def criterion_2() -> CriterionResult:
    """Fermionized statistics at the published splitting magnitudes."""
    b = SplitterMatrix(
        t1=math.sqrt(0.15),
        r1=math.sqrt(0.20),
        t2=math.sqrt(0.26),
        r2=math.sqrt(0.22),
    )
    dist = output_distribution(ModeNetwork(b.matrix), two_photon_input(1.0))
    g2 = g2_from_distribution(dist, b.matrix)
    ok = abs(g2 - 2.0) <= 1e-6
    return CriterionResult(
        2,
        "antibunched pair at the zero-phase lossy splitter",
        bool(ok),
        f"g2={g2:.9f} vs 2 (tol 1e-6)",
    )


def criterion_3() -> CriterionResult:
    """Closed-form pair correlation at the published overlap values."""
    cases = (
        (0.75, 0.0, 1.75),
        (0.71, 0.0, 1.71),
        (0.60, math.pi, 0.40),
    )
    devs = []
    for i_val, phi, expected in cases:
        devs.append(abs(g2_formula(i_val, phi) - expected))
    ok = all(d <= 0.01 for d in devs)
    detail = ", ".join(
        f"g2({i_val},{phi:.2f})={g2_formula(i_val, phi):.4f} vs {exp}"
        for (i_val, phi, exp) in cases
    )
    return CriterionResult(
        3,
        "pair correlation formula at published overlaps",
        bool(ok),
        detail + " (tol 0.01)",
    )


PHASE_TARGETS = (0.0, math.pi / 2, math.pi)  # one per PHASE_POINTS entry


def criterion_4() -> CriterionResult:
    """Analytic round-trip phase at the three published operating points.

    The three values must land near {0, pi/2, pi} with one shared control
    amplitude.  The detuning sweep connecting them winds through many
    turns at any amplitude strong enough to zero the resonant point, so
    global monotonicity is unattainable under the reconstructed
    convention; per the stated fallback the sweep must instead be
    continuous, cover the [0, pi] range on a monotone folded segment, and
    report the offsets, which is what this check verifies.
    """
    tau = tau_from_fwhm(PHASE_FWHM)
    phis = [
        phi_rt_analytic(PHASE_CAL_RABI, delta, od, tau)
        for od, delta in PHASE_POINTS
    ]
    dists = fold_phase(np.subtract(phis, PHASE_TARGETS))
    triples_ok = bool((dists <= 0.3).all())

    # One detuning sweep at fixed depth.  Its step, 20/32000, is 1/16 of a
    # 2,001-point grid's step over the same range and 1/4 of an 8,001-point
    # grid's.  Scaling by a power of two is exact, so the [::16] and [::4]
    # slices are those two grids bit for bit.
    ds = np.linspace(0.0, 20.0, 32001)
    phi = phi_rt_sweep(PHASE_CAL_RABI, ds, 100.0, tau)

    # Continuity: the maximum step along the sweep must shrink in
    # proportion to the grid refinement.
    coarse, fine = (np.unwrap(phi[::stride], period=2 * math.pi) for stride in (16, 4))
    steps = [float(np.abs(np.diff(un)).max()) for un in (coarse, fine)]
    continuous = steps[1] <= 0.5 * steps[0]

    monotone = bool(np.all(np.diff(fine) < 1e-9) or np.all(np.diff(fine) > -1e-9))

    # Folded coverage: some monotone segment of the folded curve must span
    # [0, pi] (existence plus endpoints reported).  The segments are the
    # runs of one sign of the folded curve's steps; each is monotone, so
    # its extremes are its two ends.
    folded = fold_phase(phi)
    signs = np.sign(np.diff(folded))
    edges = np.flatnonzero(np.diff(signs)) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [signs.size]))
    ends = np.stack([folded[starts], folded[stops]])
    hits = np.flatnonzero(
        (ends.min(axis=0) < 0.05) & (ends.max(axis=0) > math.pi - 0.05)
    )
    coverage = None
    if hits.size:
        coverage = (float(ds[starts[hits[0]]]), float(ds[stops[hits[0]]]))
    covered = coverage is not None

    ok = triples_ok and continuous and (monotone or covered)
    phi_txt = ", ".join(
        f"phi({od:g},{d:g})={p:.4f} (off {q:.3f})"
        for (od, d), p, q in zip(PHASE_POINTS, phis, dists)
    )
    detail = (
        f"{phi_txt}; targets 0/pi2/pi tol 0.3; continuity steps "
        f"{steps[0]:.3f}->{steps[1]:.3f}; global monotone={monotone}, "
        f"folded monotone cover segment={coverage}"
    )
    return CriterionResult(4, "analytic phase at published operating points", bool(ok), detail)


def _triangle_pair() -> tuple:
    # Both points' storage runs step as one batch, then each point's
    # extraction and checks run on their own.
    points = (RESONANT_MIXING, DETUNED_MIXING)
    stored = store([p.stage for p in points], MIX_N_Z)
    return tuple(triangle_check(p, s) for p, s in zip(points, stored))


def criterion_5(checks: tuple) -> CriterionResult:
    """Solver-extracted splitters close the oracle/formula triangle."""
    parts = []
    ok = True
    for tc in checks:
        rel = tc.deviation / abs(tc.g2_formula)
        ok = ok and rel <= 0.02
        parts.append(
            f"{tc.label}: oracle {tc.g2_oracle:.5f} vs formula "
            f"{tc.g2_formula:.5f} ({100 * rel:.3f}%, I={tc.overlap:.3f}, "
            f"phi={tc.phi_rt:.3f})"
        )
    return CriterionResult(
        5,
        "solver/oracle/formula triangle within 2%",
        bool(ok),
        "; ".join(parts),
    )


def criterion_6() -> CriterionResult:
    """Three-particle cascade value, factorization, classical threshold."""
    g3 = ideal_cascade_g3()
    value_ok = abs(g3 - 4.0) <= 1e-6

    delays, grid = fig4_grid(FIG4_STEPS, FIG4_SPAN, FIG4_I_PEAK)
    env = delay_envelope(FIG4_I_PEAK)(delays)
    worst = float(np.abs(grid - g3_formula(env[:, None], env[None, :])).max())
    grid_ok = worst <= 1e-9

    threshold = classical_bounds().g3_max
    threshold_ok = abs(threshold - 2.25) < 1e-12
    ok = value_ok and grid_ok and threshold_ok
    return CriterionResult(
        6,
        "three-particle cascade and factorization",
        bool(ok),
        f"ideal g3={g3:.9f} vs 4 (tol 1e-6); {FIG4_STEPS}x{FIG4_STEPS} factorization "
        f"worst dev={worst:.2e} (tol 1e-9); classical threshold={threshold}",
    )


# Worst relative gap allowed between a run's loss quadrature and its ledger
# loss, on a curve's finest grid and on the mixing points' runs.  The
# quadrature is a midpoint rule, so the gap is discretization error falling
# 4x per grid doubling; the worst of these runs is 7.6e-5, at n_z = 120 and
# od = 150.
LOSS_GAP_TOL = 1e-4
# A coarser run's raw gap exceeds that bound (up to 1.2e-3 at n_z = 20), so
# it is held to a tighter one together with its twin on the grid twice as
# fine: their extrapolated gap |4 g_fine - g_coarse| / 3, measured at most
# 1.1e-7.
EXTRAPOLATED_GAP_TOL = 1e-6
# The band for the observed order of a curve's efficiency at its optimum:
# the scheme is second order, measured 2.002 and 2.014; a first-order error
# gives about 1.
ORDER_BAND = (1.9, 2.1)


def curve_and_quarter(params: Fig2Params) -> tuple[Fig2Curve, Fig2Grid]:
    """A storage-drive curve and its optimum drive's run on `n_z // 4`
    cells, which reads the probe spin wave at the curve's probe time."""
    curve = fig2_curve(params)
    optimum = replace(params, rabi_s_grid=(float(curve.rabi_s[curve.optimum()]),))
    return curve, fig2_grid(optimum, params.n_z // 4, curve.fine.t_probe)


# Each depth's storage-drive curve and its quarter-grid run, keyed by od.
Fig2Runs = dict[float, tuple[Fig2Curve, Fig2Grid]]


def _extrapolated_gap(fine: Fig2Grid, coarse: Fig2Grid) -> float:
    """The worst |`richardson`| of the coarse grid's runs' gaps, each with
    its twin's on the fine grid."""
    return max(abs(richardson(fine.loss_gaps[run], gap))
               for run, gap in coarse.loss_gaps.items())


def criterion_7(curves: Fig2Runs, checks: tuple) -> CriterionResult:
    """Excitation bookkeeping, grid convergence and its order on figure
    scenarios.

    Over every run on a curve's finest grid and behind the checks, the
    ledger's loss must agree with the independent per-step quadrature of
    the decay rates; each coarser run's gap, extrapolated with its twin's,
    must vanish to a tighter bound.  Halving a curve's grid must move its
    efficiency and visibility at the optimum little, and the efficiency's
    observed order over the three grids must be the scheme's.
    """
    rel_changes, extrapolated, orders = [], [], []
    for params in FIG2_CURVES:
        curve, quarter = curves[params.od]
        fine, coarse = curve.fine, curve.coarse
        k = curve.optimum()
        for column in ("efficiency", "visibility"):
            f, c = getattr(fine, column)[k], getattr(coarse, column)[k]
            rel_changes.append(abs(c - f) / f)
        extrapolated += [_extrapolated_gap(fine, coarse), _extrapolated_gap(coarse, quarter)]
        orders.append(observed_order(quarter.efficiency[0], coarse.efficiency[k],
                                     fine.efficiency[k]))
    conv_ok = all(r <= 1e-3 for r in rel_changes)
    extrapolated_ok = max(extrapolated) <= EXTRAPOLATED_GAP_TOL
    lo, hi = ORDER_BAND
    order_ok = all(lo <= p <= hi for p in orders)

    worst_gap = max(
        [curve.fine.max_loss_gap for curve, _ in curves.values()]
        + [tc.loss_gap for tc in checks]
    )
    gap_ok = worst_gap <= LOSS_GAP_TOL

    ok = gap_ok and extrapolated_ok and conv_ok and order_ok
    return CriterionResult(
        7,
        "conservation and grid convergence",
        bool(ok),
        f"worst loss quadrature gap={worst_gap:.2e} (tol {LOSS_GAP_TOL:.0e}); "
        f"extrapolated gaps of the coarser runs={['%.2e' % g for g in extrapolated]} "
        f"(tol {EXTRAPOLATED_GAP_TOL:.0e}); "
        f"grid-halving rel changes={['%.2e' % r for r in rel_changes]} "
        f"(tol 1e-3); efficiency order at the optima={['%.4f' % p for p in orders]} "
        f"(band {lo:g} to {hi:g})",
    )


def criterion_8(curves: Fig2Runs) -> CriterionResult:
    """Storage-drive sweep shape and the depth ordering of the optima."""
    low, high = (curves[params.od][0] for params in FIG2_CURVES)
    uni_low = low.is_unimodal()
    uni_high = high.is_unimodal()
    eff_low = low.efficiency.max()
    eff_high = high.efficiency.max()
    ordered = eff_high > eff_low
    ok = uni_low and uni_high and ordered
    return CriterionResult(
        8,
        "storage-drive sweep shape and optimum ordering",
        bool(ok),
        f"od={FIG2_CURVES[0].od:g} unimodal={uni_low} (peak g2="
        f"{low.g2[low.optimum()]:.4f} at {low.rabi_s[low.optimum()]:g}); "
        f"od={FIG2_CURVES[1].od:g} unimodal={uni_high} (peak g2="
        f"{high.g2[high.optimum()]:.4f} at {high.rabi_s[high.optimum()]:g}); "
        f"efficiency optimum {eff_high:.4f} > {eff_low:.4f}: {ordered}",
    )


def run_all() -> list[CriterionResult]:
    """The eight criteria in order, in this process, each charged the time
    since the last ended, so the runtimes add up to the time the whole
    gate takes.  Criteria 7 and 8 share the curves, whose runs criterion 7
    is charged for."""
    results = []
    start = time.time()

    def charge(result: CriterionResult) -> None:
        nonlocal start
        now = time.time()
        results.append(replace(result, runtime=now - start))
        start = now

    for criterion in (criterion_1, criterion_2, criterion_3, criterion_4):
        charge(criterion())
    checks = _triangle_pair()
    charge(criterion_5(checks))
    charge(criterion_6())
    curves = {params.od: curve_and_quarter(params) for params in FIG2_CURVES}
    charge(criterion_7(curves, checks))
    charge(criterion_8(curves))
    return results


def format_report(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
