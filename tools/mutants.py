"""Hand-run mutant catalogue: can each listed check fail?

Each mutant is a (name, file, old text, new text, test ids) entry.  The
script copies the repository to a temporary directory, checks that the
named tests pass on the unchanged copy, then for each mutant replaces the
old text (which must occur exactly once) with the new one, runs the named
tests and puts the file back.  A mutant is killed when a named test fails,
and survives when all of them pass.  The exit status is 1 unless every
mutant is killed.

    python tools/mutants.py

Standard library only; not part of the test suite.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLE = "src/magnonbs/fock_oracle.py"
ORACLE_TESTS = ("tests/test_fock_oracle.py",)
EXPANSION_TESTS = ("tests/test_fock_oracle.py::test_partial_overlap_matches_the_internal_mode_expansion",)
NO_KEY_TESTS = ("tests/test_fock_oracle.py::test_patterns_that_cannot_occur_add_no_key",)
MBLOCH = "src/magnonbs/mbloch.py"
CORE = "src/magnonbs/core.py"
SPLITTER = "src/magnonbs/splitter.py"
SCENARIOS = "src/magnonbs/scenarios.py"
GAIN_TESTS = ("tests/test_core.py::test_splitter_matrix_rejects_gain",)
OVERLAP_TESTS = ("tests/test_stats.py::test_g2_formula_rejects_bad_overlap",
                 "tests/test_fock_oracle.py::test_fock_input_guards")
EXPM_TESTS = ("tests/test_mbloch.py::test_expm_matches_scipy_on_random_stacks",)
GRAM_TEST = "tests/test_splitter.py::test_grams_give_the_vector_projection_of_a_driven_cell"
PHASE_REFERENCE_TEST = "tests/test_splitter.py::test_phi_rt_estimates_match_the_two_angle_reference"
MEMO_TEST = "tests/test_splitter.py::test_phi_rt_analytic_memo_never_serves_a_stale_drive"
UNDERFLOW_TEST = "tests/test_splitter.py::test_phi_rt_estimates_stop_where_the_square_underflows"
RUN_ALL_TEST = "tests/test_acceptance.py::test_run_all_passes_every_criterion_as_in_the_contract"
RECIPROCITY_TEST = "tests/test_mbloch.py::test_the_step_loop_is_its_own_transpose_run_backwards"
PICKLE_TEST = "tests/test_core.py::test_array_values_keep_read_only_arrays_through_pickle"
BATCH_TESTS = ("tests/test_mbloch.py::test_batch_members_match_the_written_out_reference",
               "tests/test_mbloch.py::test_batch_members_equal_their_solo_runs_in_call_order",
               "tests/test_mbloch.py::test_a_wide_batch_equals_its_solo_runs")
BUDGET_TESTS = ("tests/test_mbloch.py::test_a_48_run_group_holds_no_more_than_the_budget",)

MUTANTS = (
    ("oracle: drop the loss-port Gram", ORACLE,
     "loss = net._loss_gram[ports[:, None], ports] * inp.gram",
     "loss = 0.0 * net._loss_gram[ports[:, None], ports] * inp.gram",
     ORACLE_TESTS),
    ("oracle: U in place of Vh in the loss-port Gram", ORACLE,
     "_, s, vh = np.linalg.svd(t)",
     "vh, s, _ = np.linalg.svd(t)",
     ORACLE_TESTS),
    ("oracle: I - T^+ T as the loss-port Gram", ORACLE,
     "sink = vh.conj().T @ ((1.0 - np.minimum(s, 1.0) ** 2)[:, None] * vh)",
     "sink = np.eye(len(s)) - t.conj().T @ t",
     ORACLE_TESTS),
    ("oracle: drop / mult", ORACLE,
     "terms.sum(axis=(1, 2)).real / mult",
     "terms.sum(axis=(1, 2)).real",
     ORACLE_TESTS),
    # One table per particle number, whatever the network's mode count.
    ("oracle: _pattern_table keyed on n alone", ORACLE,
     "@functools.lru_cache(maxsize=16)",
     "@(lambda f: (lambda memo: lambda m, n: memo.setdefault(n, f(m, n)))({}))",
     EXPANSION_TESTS),
    ("oracle: keep the patterns that cannot occur", ORACLE,
     "zip(keys, probs, possible) if ok}",
     "zip(keys, probs, possible)}",
     NO_KEY_TESTS),
    ("oracle: drop * G on the signal Grams", ORACLE,
     "cols[:, None, :] * inp.gram",
     "cols[:, None, :]",
     ORACLE_TESTS),
    # The gather reads the wrong port's Gram whenever a pattern leaves port 0.
    ("oracle: the gather's pattern stride dropped", ORACLE,
     "(o * n + perms[:, None, :, None]) * n",
     "(o + perms[:, None, :, None]) * n",
     ORACLE_TESTS),
    ("mbloch: drop the expm squaring loop", MBLOCH,
     "for k in range(int(s.max(initial=0.0))):",
     "for k in range(0):",
     EXPM_TESTS),
    # Each matrix's own scaling power keeps a run's maps the same in any
    # step group; two runs of the wide batch drive past the threshold.
    ("mbloch: expm scales the stack by its largest 1-norm", MBLOCH,
     "s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13))",
     "s = np.ceil(np.log2(np.maximum(norm.max(initial=0.0), _THETA13) / _THETA13)) + 0 * norm",
     ("tests/test_mbloch.py::test_a_wide_batch_equals_its_solo_runs",)),
    ("mbloch: drop the expm squaring overflow check", MBLOCH,
     "if not np.isfinite(r).all():",
     "if False:",
     ("tests/test_mbloch.py::test_expm_whose_squarings_overflow_is_a_physics_violation",)),
    ("mbloch: one Pade coefficient of expm changed", MBLOCH,
     "33522128640.0",
     "33522128460.0",
     EXPM_TESTS),
    # The reference run has gamma12 = 0.05 and checks loss_quad against a
    # written-out quadrature.
    ("mbloch: gamma12 term of loss_quad never added", MBLOCH,
     "loss_quad[:a] += quad_s_a * vecdot(s_rows[:m], s_rows[:m]).sum(axis=(0, 1))",
     "loss_quad[:a] += 0.0 * vecdot(s_rows[:m], s_rows[:m]).sum(axis=(0, 1))",
     ("tests/test_mbloch.py::test_step_loop_matches_the_written_out_reference",)),
    # The batch loop: blocks of steps in a ring of state slots, ending at
    # ledger reads, and members of unequal length, pulses and initial states.
    ("mbloch: drop the partial loss-quadrature block at a ledger read", MBLOCH,
     "loss_quad[:a] += quad_p * vecdot(p_rows[:m], p_rows[:m]).sum(axis=(0, 1))",
     "loss_quad[:a] += quad_p * vecdot(p_rows[:m], p_rows[:m]).sum(axis=(0, 1)) * (m == steps)",
     BATCH_TESTS),
    ("mbloch: keep a finished member in the step", MBLOCH,
     "while lengths[active - 1] <= base:",
     "while False:",
     BATCH_TESTS),
    ("mbloch: write the emission window one step late", MBLOCH,
     "outflow[:a, base - w0 : end - w0] = ring[:m, 0:2, :a, 0].transpose(2, 0, 1)",
     "outflow[:a, base - w0 + 1 : end - w0 + 1] = ring[:m, 0:2, :a, 0].transpose(2, 0, 1)",
     BATCH_TESTS),
    ("mbloch: read the emitted cell from column 1", MBLOCH,
     "outflow[:a, base - w0 : end - w0] = ring[:m, 0:2, :a, 0].transpose(2, 0, 1)",
     "outflow[:a, base - w0 : end - w0] = ring[:m, 0:2, :a, 1].transpose(2, 0, 1)",
     BATCH_TESTS),
    ("mbloch: inject member 0's boundary into every member", MBLOCH,
     "for i, (rows, _) in enumerate(boundary):",
     "for i, (rows, _) in enumerate([boundary[0]] * b):",
     BATCH_TESTS),
    ("mbloch: write the injection one slot late", MBLOCH,
     "ring[:m, 0:2, :a, n_z + 1] = inflow[base - w0 : end - w0, :, :a]",
     "ring[1 : m + 1, 0:2, :a, n_z + 1] = inflow[base - w0 : end - w0, :, :a]",
     BATCH_TESTS),
    # The E shift spills each row's column 0 into the injection column of
    # the row before it, which only the block's write of every member's
    # injection column puts right.
    ("mbloch: no injection-column reset for a member without a pulse", MBLOCH,
     "ring[:m, 0:2, :a, n_z + 1] = inflow[base - w0 : end - w0, :, :a]",
     "for i in range(a):\n"
     "                if boundary[i][0] is not None:\n"
     "                    ring[:m, 0:2, i, n_z + 1] = inflow[base - w0 : end - w0, :, i]",
     BATCH_TESTS),
    ("mbloch: the injection window never refilled", MBLOCH,
     "            w0 = r + 1\n            fill(w0)\n",
     "            w0 = r + 1\n",
     BATCH_TESTS),
    # Each step group of the batch tests mixes media, and gamma12 = 0 with
    # gamma12 > 0.
    ("mbloch: a member stepped with its neighbour's medium", MBLOCH,
     "for (medium, timeline, *_), n_i in zip(members, lengths)",
     "for (_, timeline, *_), (medium, *_), n_i in zip(members, members[1:] + members, lengths)",
     BATCH_TESTS),
    ("mbloch: every member's gamma12 factor taken from member 0", MBLOCH,
     "np.array([m[0].gamma12 for m in members])",
     "np.array([members[0][0].gamma12 for m in members])",
     BATCH_TESTS),
    # The block's last product goes to slot 0, from the shifted state of
    # its last step, in slot m - 1.
    ("mbloch: the carried product read from slot m", MBLOCH,
     "matmul(fused_a, states[m - 1, :a], out=states[0, :a])",
     "matmul(fused_a, states[m, :a], out=states[0, :a])",
     (*BATCH_TESTS, RECIPROCITY_TEST)),
    # A block of maps starts with the last half map the block before it built.
    ("mbloch: a block of maps starts with the run before its own", MBLOCH,
     "ahead = half[nb] if r1 < n_runs else None",
     "ahead = half[nb - 1] if r1 < n_runs else None",
     ("tests/test_mbloch.py::test_step_maps_built_in_small_blocks_match_the_reference",
      *BATCH_TESTS)),
    ("mbloch: the ring not cut to the budget", MBLOCH,
     "return max(1, min(_RING, slots - 1)), max(1, runs)",
     "return _RING, max(1, runs)",
     BUDGET_TESTS),
    ("mbloch: the blocks of maps not cut to the budget", MBLOCH,
     "return max(1, min(_RING, slots - 1)), max(1, runs)",
     "return max(1, min(_RING, slots - 1)), 1024",
     BUDGET_TESTS),
    ("mbloch: a grid's runs in one group however many", MBLOCH,
     "width = _group_width(z.size)",
     "width = len(order)",
     ("tests/test_mbloch.py::test_a_wide_batch_equals_its_solo_runs",)),
    # Criterion 6's grid and its reference share the envelope, so criterion
    # 6 alone cannot kill this one.
    ("stats: OverlapEnvelope width 4 sigma^2 -> 2 sigma^2", "src/magnonbs/stats.py",
     "np.exp(-(dtau**2) / (4.0 * self.sigma**2))",
     "np.exp(-(dtau**2) / (2.0 * self.sigma**2))",
     ("tests/test_acceptance.py::test_criterion_6_triple_correlations",
      "tests/test_stats.py", "tests/test_scenarios.py")),
    # The old chained comparison's reading of the range check, under which
    # NaN fails neither bound.
    ("core: _check_overlap lets NaN through", CORE,
     "if not ((v >= 0.0) & (v <= 1.0 + 1e-9)).all():",
     "if ((v < 0.0) | (v > 1.0 + 1e-9)).any():",
     OVERLAP_TESTS),
    ("core: overlap upper slack 1e-9 -> 1e-6", CORE,
     "v <= 1.0 + 1e-9", "v <= 1.0 + 1e-6", OVERLAP_TESTS),
    ("core: overlap lower bound 0 -> -1e-6", CORE,
     "v >= 0.0", "v >= -1e-6", OVERLAP_TESTS),
    ("core: passivity tolerance 1e-10 -> 1e-8", CORE,
     "if not smax <= 1.0 + 1e-10:", "if not smax <= 1.0 + 1e-8:", GAIN_TESTS),
    ("core: passivity read from the smallest singular value", CORE,
     "smax = s[0]", "smax = s[-1]", GAIN_TESTS),
    ("acceptance: criterion 4's coarse stride 16 -> 8", "src/magnonbs/acceptance.py",
     "for stride in (16, 4))",
     "for stride in (8, 4))",
     ("tests/test_acceptance.py::test_criterion_4_phase_operating_points",)),
    # run_all builds the shallow pair itself and the deep pair in a worker
    # process, from one helper.
    ("acceptance: the halved-grid twin built at the fine n_z", "src/magnonbs/acceptance.py",
     "n_z=params.n_z // 2)",
     "n_z=params.n_z)",
     (RUN_ALL_TEST,)),
    ("acceptance: the shallow pair read for both depths", "src/magnonbs/acceptance.py",
     "pairs = {shallow.od: curve_pair(shallow), deep.od: deep_pair.result()}",
     "pairs = dict.fromkeys((shallow.od, deep.od), curve_pair(shallow))",
     (RUN_ALL_TEST,)),
    ("cli: the sweep checks each group of points only as it steps", "src/magnonbs/cli.py",
     "for _, order in _plan_batch(runs):",
     "for order in [sorted(range(len(runs)), key=lambda i: -runs[i][2].n_steps)]:",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute",)),
    ("mbloch: a grid's runs stepped shortest first", MBLOCH,
     "key=lambda i: -runs[i][2].n_steps)",
     "key=lambda i: runs[i][2].n_steps)",
     ("tests/test_cli.py::test_sweep_steps_one_step_group_per_call",)),
    ("cli: one evolve_batch call per sweep grid", "src/magnonbs/cli.py",
     "for lo in range(0, len(order), _SWEEP_CHUNK):\n            group = order[lo : lo + _SWEEP_CHUNK]",
     "for lo in range(0, len(order), len(order)):\n            group = order[lo:]",
     ("tests/test_cli.py::test_sweep_steps_one_step_group_per_call",)),
    ("cli: a sweep may set any section's number", "src/magnonbs/cli.py",
     "KEYS[section].get(key, (None,))[0] if section in _RUN_SECTIONS else None",
     "KEYS.get(section, {}).get(key, (None,))[0]",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute",
      "tests/test_cli.py::test_sweep_rejects_unknown_parameter")),
    ("splitter: the scalar phase's exp conjugates its argument", SPLITTER,
     "xi = cmath.exp(-x / (1.0 - 1j * d))",
     "xi = cmath.exp((-x / (1.0 - 1j * d)).conjugate())",
     ("tests/test_splitter.py::test_phi_rt_sweep_is_the_scalar_estimate_over_an_array",)),
    # The one angle arg((1 - xi)^2 / (xi den)) with one factor conjugated.
    ("splitter: the scalar phase's one angle takes |1 - xi|^2", SPLITTER,
     "cmath.phase(m * m / (xi * den))",
     "cmath.phase(m * m.conjugate() / (xi * den))",
     (PHASE_REFERENCE_TEST,)),
    ("splitter: the phase sweep's one angle conjugates xi", SPLITTER,
     "np.angle(m * m / (xi * den))",
     "np.angle(m * m / (xi.conj() * den))",
     (PHASE_REFERENCE_TEST,)),
    ("splitter: the pulse area squares the drive with **", SPLITTER,
     "x = r * r * float(tau) / 4.0",
     "x = r ** 2 * float(tau) / 4.0",
     ("tests/test_splitter.py::test_phi_rt_analytic_guards",
      "tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[fig3 --override scenario.phase_rabi=1e200]")),
    ("splitter: drop the od overflow guard", SPLITTER,
     "if not 4.0 * (x + od) < math.inf:",
     "if False:",
     ("tests/test_splitter.py::test_phi_rt_analytic_guards",
      "tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[fig3 --override scenario.phase_rabi=3.76 --override scenario.triples=1.7e308:2]")),
    ("splitter: the phase memo's key leaves out tau", SPLITTER,
     "if rabi is last_rabi and od is last_od and tau is last_tau:",
     "if rabi is last_rabi and od is last_od:",
     (MEMO_TEST,)),
    ("splitter: a phase memo hit skips the finite-detuning check", SPLITTER,
     "if not math.isfinite(detuning):",
     "if False:",
     ("tests/test_splitter.py::test_phi_rt_analytic_guards",)),
    ("splitter: the scalar phase drops the detuning bound", SPLITTER,
     "if not -max_detuning <= d <= max_detuning:",
     "if False:",
     (UNDERFLOW_TEST,
      "tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[fig3 --override scenario.triples=30:1e300]")),
    ("splitter: the phase sweep drops the detuning bound", SPLITTER,
     "if (np.abs(detunings) > max_detuning).any():",
     "if False:",
     (UNDERFLOW_TEST,)),
    ("splitter: the phase sweep lets non-finite detunings through", SPLITTER,
     "np.isfinite(detunings).all()",
     "True",
     ("tests/test_splitter.py::test_phi_rt_sweep_is_the_scalar_estimate_over_an_array",)),
    ("splitter: extract_matrix drops the photon window", SPLITTER,
     "light = np.stack([run_a.emitted[:hi], run_b.emitted[:hi]])",
     "light = np.stack([run_a.emitted, run_b.emitted])",
     ("tests/test_acceptance.py::test_criterion_5_triangle_consistency",
      GRAM_TEST)),
    ("splitter: the photon window ends one cell transit early", SPLITTER,
     "t_cut + 1.0 / C_EFF + 0.5",
     "t_cut + 0.5",
     (GRAM_TEST,)),
    ("splitter: the port Grams left writeable", SPLITTER,
     "self.grams.setflags(write=False)",
     "self.grams.setflags(write=True)",
     ("tests/test_splitter.py::test_extract_matrix_mixes_ports_in_a_driven_cell",
      PICKLE_TEST)),
    # Row sums are the column sums' conjugates: the magnitudes stay and
    # the round-trip phase flips sign.
    ("splitter: row sums of the port Grams in place of column sums", SPLITTER,
     "amps = grams.sum(axis=1)",
     "amps = grams.sum(axis=2)",
     ("tests/test_splitter.py::test_extraction_round_trips_a_synthetic_matrix",
      GRAM_TEST)),
    # Unconjugated, the magnon Gram is symmetric: at the detuned point its
    # loss Gram is then not Hermitian.
    ("splitter: the magnon Gram drops its .conj()", SPLITTER,
     "run_a.final_state.dz * (spin.conj() @ spin.T)",
     "run_a.final_state.dz * (spin @ spin.T)",
     ("tests/test_scenarios.py::"
      "test_the_gate_points_leave_a_positive_semidefinite_loss_gram",)),
    ("splitter: the photon Gram weighted by dz", SPLITTER,
     "run_a.dt * (light.conj() @ light.T)",
     "run_a.final_state.dz * (light.conj() @ light.T)",
     (GRAM_TEST,)),
    ("mbloch: a run may start from a state at t_now != 0", MBLOCH,
     "if initial.t_now != 0.0:",
     "if False:",
     ("tests/test_mbloch.py::"
      "test_an_initial_state_that_starts_late_is_a_config_error_before_any_step",
      "tests/test_splitter.py::test_extract_matrix_rejects_a_stored_wave_that_starts_late")),
    ("mbloch: drop the drive bound", MBLOCH,
     "if drive * dt > _MAX_DRIVE_STEP:",
     "if False:",
     ("tests/test_mbloch.py::test_a_bad_batch_is_a_config_error_before_any_step",
      "tests/test_cli.py::test_a_drive_the_grid_cannot_resolve_is_a_config_error")),
    ("mbloch: drop the step bound", MBLOCH,
     "if self.t_end / self.dt - 1e-9 > _MAX_STEPS:",
     "if False:",
     ("tests/test_mbloch.py::test_a_run_may_take_up_to_the_step_bound",
      "tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[run --override grid.t_end=1e12]")),
    # Forward and mirrored runs then sample the drive a step apart.
    ("mbloch: sample the drive one step late", MBLOCH,
     "timeline.rabi(times[:n_i])",
     "timeline.rabi(times[:n_i] + dt)",
     (RECIPROCITY_TEST,)),
    # The fault is symmetric under transposition, so the reciprocity test
    # cannot see it; the written-out references can.
    ("mbloch: R_s R_{s+1} at a drive-run boundary", MBLOCH,
     "np.matmul(half[1:], half[:-1], out=",
     "np.matmul(half[:-1], half[1:], out=",
     ("tests/test_mbloch.py::test_step_loop_matches_the_written_out_reference", *BATCH_TESTS)),
    ("mbloch: the emitted field left writeable", MBLOCH,
     "self.emitted.setflags(write=False)",
     "self.emitted.setflags(write=True)",
     ("tests/test_mbloch.py::test_batch_members_own_their_outputs", PICKLE_TEST)),
    ("mbloch: drop the held-norm check", MBLOCH,
     "if held > budget + PROBABILITY_SLACK:",
     "if False:",
     ("tests/test_mbloch.py::test_a_held_norm_above_the_input_stops_the_run",)),
    ("core: drop the negative-loss check", CORE,
     "if self.loss_accum < -PROBABILITY_SLACK:",
     "if False:",
     ("tests/test_core.py::test_field_state_rejects_loss_below_its_slack",)),
    # Plain unpickling then skips __post_init__, which freezes the arrays.
    ("core: the array values' base loses its __reduce__", CORE,
     "    def __reduce__(self):\n",
     "    def _reduce(self):\n",
     (PICKLE_TEST,)),
    ("core: the array values' equality reads only the first field", CORE,
     "for f in fields(self) if f.compare)",
     "for f in fields(self)[:1] if f.compare)",
     ("tests/test_fock_oracle.py::test_network_equality_reads_the_transfer_matrix_alone",)),
    ("core: a segment's drive may be complex", CORE,
     "if np.iscomplexobj(self.amplitude):",
     "if False:",
     ("tests/test_core.py::test_a_complex_drive_is_a_config_error",)),
    ("core: a segment's ramp may be NaN", CORE,
     '"t_start", "t_end", "amplitude", "ramp")',
     '"t_start", "t_end", "amplitude")',
     ("tests/test_core.py::test_constructors_reject_non_finite_values",)),
    ("scenarios: drop the storage run from triangle_check's ledger checks",
     SCENARIOS,
     "(stored.trajectory, result.run_magnon, result.run_photon)]",
     "(result.run_magnon, result.run_photon)]",
     ("tests/test_acceptance.py::test_criterion_5_triangle_consistency",
      "tests/test_acceptance.py::test_criterion_7_conservation_and_grid",
      "tests/test_scenarios.py",
      "tests/test_scenarios.py::"
      "test_triangle_check_counts_the_storage_run_in_its_loss_gap")),
    ("scenarios: the stored state keeps the field left in the cell", SCENARIOS,
     "zero, fin.sigma12.copy(), zero.copy(),",
     "fin.e_field.copy(), fin.sigma12.copy(), zero.copy(),",
     ("tests/test_mbloch.py::test_storage_returns_a_pure_spin_wave",)),
    ("scenarios: is_unimodal lets the visibility rise by zero", SCENARIOS,
     "steps[:k] > 0",
     "steps[:k] >= 0",
     ("tests/test_scenarios.py::test_fig2_curve_is_unimodal_only_with_a_strict_interior_peak",)),
    ("mbloch: check the held norm only every _CHECK_EVERY steps", MBLOCH,
     "            if not np.isfinite(held):\n",
     "            if r % _CHECK_EVERY == 0 and not np.isfinite(held):\n",
     ("tests/test_mbloch.py::test_a_state_that_overflows_after_its_first_check_stops_the_run",)),
    ("core: drop the od overflow guard of MediumParams", CORE,
     "if not math.isfinite(2.0 * self.od * C_EFF):",
     "if False:",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute",)),
    ("scenarios: v_group squares the drive with **", SCENARIOS,
     "w2 = abs(rabi) * abs(rabi)",
     "w2 = abs(rabi) ** 2",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute",)),
    ("cli: a config file that is not UTF-8 escapes as a traceback", "src/magnonbs/cli.py",
     "except UnicodeDecodeError as exc:",
     "except LookupError as exc:",
     ("tests/test_cli.py::test_a_config_file_that_is_not_utf8_is_a_config_error",)),
    ("cli: a float array column formatted to nine digits", "src/magnonbs/cli.py",
     "return [_FLOAT_FMT % v for v in values.tolist()]",
     'return ["%.9g" % v for v in values.tolist()]',
     ("tests/test_cli.py::test_write_csv_cells_match_the_row_by_row_reference",)),
    ("mbloch: the generator reads |delta|", MBLOCH,
     "gen[:, 1, 1] = -(1.0 - 1j * medium.delta)",
     "gen[:, 1, 1] = -(1.0 - 1j * abs(medium.delta))",
     ("tests/test_splitter.py::test_flipping_the_detuning_conjugates_the_grams_exactly",)),
    # An od error of 2 dt, 0.2% at n_z 160: the gate still passes.
    ("mbloch: a first-order error in the coupling", MBLOCH,
     "gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling\n",
     "gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling * (1.0 + 4.0 * dt_half)\n",
     ("tests/test_scenarios.py::test_the_resonant_gate_point_converges_at_second_order",)),
    ("mbloch: a real part on the coupling", MBLOCH,
     "1j * medium.coupling",
     "(1e-3 + 1j) * medium.coupling",
     ("tests/test_splitter.py::test_grams_on_resonance_are_exactly_real",)),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_tests(tree: Path, ids: tuple[str, ...]) -> tuple[int, list[str]]:
    """Pytest's exit code and the ids it reports as failed or in error."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=tree, capture_output=True, text=True,
    )
    return proc.returncode, _FAILED.findall(proc.stdout)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".out"))
        all_ids = tuple(dict.fromkeys(i for m in MUTANTS for i in m[4]))
        code, failed = run_tests(tree, all_ids)
        if code != 0:
            print(f"the unchanged tree fails its tests (exit {code}): {failed}")
            return 1
        not_killed = 0
        for name, rel, old, new, ids in MUTANTS:
            path = tree / rel
            original = path.read_text()
            if original.count(old) != 1:
                print(f"stale     {name}: old text found {original.count(old)} times")
                not_killed += 1
                continue
            path.write_text(original.replace(old, new))
            try:
                code, failed = run_tests(tree, ids)
            finally:
                path.write_text(original)
            if code == 1:
                more = f" and {len(failed) - 1} more" if len(failed) > 1 else ""
                print(f"killed    {name}  by {failed[0]}{more}")
            elif code == 0:
                print(f"survived  {name}")
                not_killed += 1
            else:
                print(f"error     {name}: pytest exit {code}")
                not_killed += 1
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())
