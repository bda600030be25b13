"""Hand-run mutant catalogue: can each listed check fail?

Each mutant is a (name, file, old text, new text, test ids) entry.  The
script copies the repository to a temporary directory per worker, one per
core and at most two, checks that the named tests pass on an unchanged
copy, then for each mutant, on whichever copy is free, replaces the old
text (which must occur exactly once) with the new one, runs the named
tests and puts the file back.  A mutant is killed when a named test fails,
and survives when all of them pass.  Results print in catalogue order.
The exit status is 1 unless every mutant is killed.

    python tools/mutants.py

Standard library only; not part of the test suite.
"""

from __future__ import annotations

import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
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
ACCEPTANCE = "src/magnonbs/acceptance.py"
GAIN_TESTS = ("tests/test_core.py::test_splitter_matrix_rejects_gain",)
OVERLAP_TESTS = ("tests/test_stats.py::test_g2_formula_rejects_bad_overlap",
                 "tests/test_fock_oracle.py::test_fock_input_guards")
EXPM_TESTS = ("tests/test_mbloch.py::test_expm_matches_scipy_on_random_stacks",)
GRAM_TEST = "tests/test_splitter.py::test_grams_give_the_vector_projection_of_a_driven_cell"
PHASE_REFERENCE_TEST = "tests/test_splitter.py::test_phi_rt_estimates_match_the_two_angle_reference"
MEMO_TEST = "tests/test_splitter.py::test_phi_rt_analytic_memo_never_serves_a_stale_drive"
UNDERFLOW_TEST = "tests/test_splitter.py::test_phi_rt_estimates_stop_where_the_square_underflows"
RUN_ALL_TEST = "tests/test_acceptance.py::test_run_all_passes_every_criterion_as_in_the_contract"
RICHARDSON_TEST = ("tests/test_scenarios.py::"
                   "test_a_curve_on_80_and_40_cells_extrapolates_to_one_on_160_and_80")
COLUMNS_TEST = ("tests/test_scenarios.py::"
                "test_each_curve_column_is_the_richardson_value_of_its_grids")
FIG2_GRID_BOUND_TEST = ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
                        "[fig2 --override scenario.ods=150,30 --override scenario.rabi_s_grid=5e5]")
MEDIUM_BOUND_TEST = ("tests/test_mbloch.py::"
                     "test_a_medium_the_grid_cannot_resolve_is_a_config_error_before_any_step")
MEDIUM_BOUND_CLI_TESTS = tuple(
    "tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
    f"[run --override grid.n_z=16 --override grid.t_end=0.5 --override medium.{medium}]"
    for medium in ("od=1e160", "od=1e200", "delta=1e100", "delta=1e300"))
RUN_MEMORY_TEST = "tests/test_cli.py::test_run_holds_only_its_recorded_emission_per_step"
RECIPROCITY_TEST = "tests/test_mbloch.py::test_the_step_loop_is_its_own_transpose_run_backwards"
PICKLE_TEST = "tests/test_core.py::test_array_values_keep_read_only_arrays_through_pickle"
GAIN_FAULT_TEST = ("tests/test_mbloch.py::"
                   "test_a_gain_whose_norm_has_left_the_cell_stops_the_run_before_its_end")
BATCH_TESTS = ("tests/test_mbloch.py::test_batch_members_match_the_written_out_reference",
               "tests/test_mbloch.py::test_batch_members_equal_their_solo_runs_in_call_order",
               "tests/test_mbloch.py::test_a_wide_batch_equals_its_solo_runs")
INVARIANCE_TESTS = ("tests/test_mbloch.py::"
                    "test_every_output_of_a_run_is_its_own_whatever_steps_it",)
SMALL_BLOCK_TESTS = (
    "tests/test_mbloch.py::test_step_maps_built_in_small_blocks_match_the_reference",
    *BATCH_TESTS)
BUDGET_TESTS = ("tests/test_mbloch.py::test_a_step_group_holds_its_budget_and_a_window_per_member",)
WINDOW_TESTS = ("tests/test_mbloch.py::test_window_sampled_drive_runs_are_the_timeline_at_every_midpoint",
                "tests/test_mbloch.py::test_window_sampled_maps_are_the_whole_run_maps")
PLANNING_MEMORY_TESTS = (
    "tests/test_mbloch.py::test_runs_recording_no_emission_hold_little_per_step",
    "tests/test_mbloch.py::test_planning_a_drive_that_changes_at_every_step_holds_nothing_per_step")
CHUNK_TEST = "tests/test_splitter.py::test_a_phase_sweep_in_chunks_is_the_sweep_over_the_whole_array"
PULSE_COLUMN_TEST = ("tests/test_mbloch.py::"
                     "test_shared_equal_distinct_and_absent_pulses_in_one_group_are_each_runs_own")
ORACLE_STEP_TEST = ("tests/test_mbloch.py::"
                    "test_a_constant_drive_run_is_its_exact_discrete_transfer_function")
# Every step group of the first steps all six rows of the real form, and
# every group of the second the three real rows alone.
SIX_ROW_TESTS = ("tests/test_mbloch.py::test_batch_members_match_the_written_out_reference",)
REAL_ROW_TESTS = ("tests/test_mbloch.py::"
                  "test_a_resonant_batch_steps_its_real_rows_and_matches_the_reference",)

# The step loop's code that both row layouts run, as the mutants below
# name each: its name's suffix and the tests that step in that layout.
LAYOUTS = (("", SIX_ROW_TESTS), (", in the three real rows", REAL_ROW_TESTS))

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
     "quad += quad_s_a * vecdot(s_rows[:m], s_rows[:m]).sum(axis=1)",
     "quad += 0.0 * vecdot(s_rows[:m], s_rows[:m]).sum(axis=1)",
     ("tests/test_mbloch.py::test_step_loop_matches_the_written_out_reference",)),
    # The batch loop: blocks of steps in a ring of state slots, ending at
    # ledger reads, and members of unequal length, pulses and initial states.
    ("mbloch: drop the partial loss-quadrature block at a ledger read", MBLOCH,
     "terms[:a, base - w0 : end - w0] = quad.T",
     "terms[:a, base - w0 : end - w0] = quad.T * (m == steps)",
     BATCH_TESTS),
    # Each block's terms summed as one, as the loss quadrature once was:
    # its bits then follow where the group's blocks of steps end.
    ("mbloch: quadrature summed per block", MBLOCH,
     "terms[:a, base - w0 : end - w0] = quad.T",
     "terms[:a, base - w0 : end - w0] = 0.0\n"
     "            terms[:a, base - w0] = quad.sum(axis=0)",
     INVARIANCE_TESTS),
    ("mbloch: a member ending mid-window loses its last window's terms", MBLOCH,
     "loss_quad[i] += terms[i, : r + 1 - w0].sum()",
     "loss_quad[i] += terms[i, : r + 1 - w0].sum() * closes",
     ("tests/test_mbloch.py::test_step_loop_matches_the_written_out_reference",)),
    ("mbloch: keep a finished member in the step", MBLOCH,
     "while lengths[active - 1] <= base:",
     "while False:",
     BATCH_TESTS),
    *((f"mbloch: write the emission window one step late{layout}", MBLOCH,
       "outflow[:a, base - w0 : end - w0, :c] = ring[:m, :c, :a, 0].transpose(2, 0, 1)",
       "outflow[:a, base - w0 + 1 : end - w0 + 1, :c] = ring[:m, :c, :a, 0].transpose(2, 0, 1)",
       tests) for layout, tests in LAYOUTS),
    *((f"mbloch: read the emitted cell from column 1{layout}", MBLOCH,
       "outflow[:a, base - w0 : end - w0, :c] = ring[:m, :c, :a, 0].transpose(2, 0, 1)",
       "outflow[:a, base - w0 : end - w0, :c] = ring[:m, :c, :a, 1].transpose(2, 0, 1)",
       tests) for layout, tests in LAYOUTS),
    ("mbloch: inject member 0's pulse into every member", MBLOCH,
     "for *_, pulse, _ in members])",
     "for *_, pulse, _ in [members[0]] * b])",
     BATCH_TESTS),
    # The pulse window's zero column is the last; column 0 is the first
    # pulse's.
    ("mbloch: a member without a pulse reads column 0", MBLOCH,
     "columns.get(pulse, len(columns))",
     "columns.get(pulse, 0)",
     (*BATCH_TESTS, PULSE_COLUMN_TEST)),
    ("mbloch: each pulse's samples held for the whole run", MBLOCH,
     "    injected = np.zeros((_CHECK_EVERY, len(columns) + 1))\n",
     "    injected = np.zeros((_CHECK_EVERY, len(columns) + 1))\n"
     "    history = [pulse.amplitude((np.arange(n_p) + 0.5) * dt)\n"
     "               for pulse, n_p in pulse_ends.items()]\n",
     ("tests/test_mbloch.py::test_a_pulse_is_held_a_window_at_a_time",)),
    # Each window's cumsum goes on from the norm injected before it.
    ("mbloch: the window's injected-norm carry dropped", MBLOCH,
     "min(w1, n_p), dt, injected[last, p])",
     "min(w1, n_p), dt, 0.0)",
     (*BATCH_TESTS, PULSE_COLUMN_TEST)),
    *((f"mbloch: write the injection one slot late{layout}", MBLOCH,
       "ring[:m, :c, :a, n_z + 1] = inflow[base - w0 : end - w0, :c][..., column[:a]]",
       "ring[1 : m + 1, :c, :a, n_z + 1] = inflow[base - w0 : end - w0, :c][..., column[:a]]",
       tests) for layout, tests in LAYOUTS),
    # The E shift spills each row's column 0 into the injection column of
    # the row before it, which only the block's write of every member's
    # injection column puts right.
    *((f"mbloch: no injection-column reset for a member without a pulse{layout}", MBLOCH,
       "ring[:m, :c, :a, n_z + 1] = inflow[base - w0 : end - w0, :c][..., column[:a]]",
       "for i in range(a):\n"
       "                if column[i] < len(columns):\n"
       "                    ring[:m, :c, i, n_z + 1] = inflow[base - w0 : end - w0, :c, column[i]]",
       tests) for layout, tests in LAYOUTS),
    # Each run's trajectory is built at its last read, with its emission
    # scaled there.
    ("mbloch: the emission left unscaled at the last read", MBLOCH,
     "emitted[i] *= sqrt_c",
     "emitted[i] *= 1.0",
     ("tests/test_mbloch.py::test_step_loop_matches_the_written_out_reference",)),
    # A detuned run then drops its Im E, Re P and Im S rows.
    ("mbloch: the row rule ignores delta", MBLOCH,
     "if medium.delta != 0.0 or initial is not None and (",
     "if initial is not None and (",
     ("tests/test_mbloch.py::test_step_loop_matches_the_written_out_reference",)),
    ("mbloch: the row rule ignores the seeded state's imaginary pattern", MBLOCH,
     "initial is not None and (",
     "initial is not None and False and (",
     ("tests/test_mbloch.py::"
      "test_a_resonant_run_seeded_off_its_real_rows_matches_the_reference",)),
    ("mbloch: the injection window never refilled", MBLOCH,
     "            fill(r + 1, r + 1 + _CHECK_EVERY, r - w0)\n",
     "",
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
     "starts, drives = starts[nb:], drives[nb:]",
     "starts, drives = starts[nb:], drives[nb - 1 :]",
     SMALL_BLOCK_TESTS),
    # A block's last step then takes a zero map for R_{s+1} R_s.
    ("mbloch: a block's expm drops the next block's first run", MBLOCH,
     "_local_maps(medium, drives[: nb + 1], 0.5 * dt)",
     "_local_maps(medium, drives[:nb], 0.5 * dt)",
     SMALL_BLOCK_TESTS),
    ("mbloch: the ring not cut to the budget", MBLOCH,
     "return max(1, min(_RING, slots - 1)), max(1, runs)",
     "return _RING, max(1, runs)",
     BUDGET_TESTS),
    ("mbloch: the blocks of maps not cut to the budget", MBLOCH,
     "return max(1, min(_RING, slots - 1)), max(1, runs)",
     "return max(1, min(_RING, slots - 1)), 1024",
     BUDGET_TESTS),
    # The inflow window as wide as the group, as it was when each member
    # had a pulse column of its own: 4 kB more per member.
    ("mbloch: a pulse column per member", MBLOCH,
     "inflow = np.zeros((_CHECK_EVERY, 2, len(columns) + 1))",
     "inflow = np.zeros((_CHECK_EVERY, 2, b + 1))",
     BUDGET_TESTS),
    ("mbloch: a grid's runs in one group however many", MBLOCH,
     "width = _group_width(n_z)",
     "width = len(order)",
     ("tests/test_mbloch.py::test_a_wide_batch_equals_its_solo_runs",)),
    # Criterion 6's grid and its reference share the overlap, so criterion
    # 6 alone cannot kill this one.
    ("scenarios: delay_overlap width 4 sigma^2 -> 2 sigma^2", SCENARIOS,
     "np.exp(-(d**2) / (4.0 * PULSE.sigma**2))",
     "np.exp(-(d**2) / (2.0 * PULSE.sigma**2))",
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
    ("acceptance: criterion 4's coarse stride 16 -> 8", ACCEPTANCE,
     "for stride in (16, 4))",
     "for stride in (8, 4))",
     ("tests/test_acceptance.py::test_criterion_4_phase_operating_points",)),
    # run_all builds each depth's curve and its quarter-grid run with one
    # helper.
    ("acceptance: the quarter-grid run built at the fine n_z", ACCEPTANCE,
     "fig2_grid(optimum, params.n_z // 4, curve.fine.t_probe)",
     "fig2_grid(optimum, params.n_z, curve.fine.t_probe)",
     (RUN_ALL_TEST,)),
    ("acceptance: the shallow curve read for both depths", ACCEPTANCE,
     "curves = {params.od: curve_and_quarter(params) for params in FIG2_CURVES}",
     "curves = dict.fromkeys((p.od for p in FIG2_CURVES), curve_and_quarter(FIG2_CURVES[0]))",
     (RUN_ALL_TEST,)),
    ("acceptance: criterion 7 drops its order check", ACCEPTANCE,
     "ok = gap_ok and extrapolated_ok and conv_ok and order_ok",
     "ok = gap_ok and extrapolated_ok and conv_ok",
     ("tests/test_acceptance.py::test_criterion_7_fails_on_an_efficiency_order_out_of_its_band",)),
    ("acceptance: criterion 7 skips the extrapolated-gap check", ACCEPTANCE,
     "ok = gap_ok and extrapolated_ok and conv_ok and order_ok",
     "ok = gap_ok and conv_ok and order_ok",
     ("tests/test_acceptance.py::"
      "test_criterion_7_fails_on_a_coarse_gap_its_fine_twin_does_not_extrapolate",)),
    ("scenarios: Richardson weights 2 f_fine - f_coarse", SCENARIOS,
     "return (4.0 * fine - coarse) / 3.0",
     "return 2.0 * fine - coarse",
     (RICHARDSON_TEST, COLUMNS_TEST)),
    ("scenarios: observed_order drops its sign check", SCENARIOS,
     "if not d_coarse * d_fine > 0:",
     "if not d_coarse * d_fine:",
     ("tests/test_scenarios.py::test_observed_order_of_three_grids",)),
    ("cli: fig2 runs its curves unchecked against their grids", "src/magnonbs/cli.py",
     "        params.require_step_bound()\n",
     "",
     (FIG2_GRID_BOUND_TEST,)),
    ("scenarios: a curve's drives checked on its finest grid alone", SCENARIOS,
     "for n_z in (self.n_z, self.n_z // 2):",
     "for n_z in (self.n_z,):",
     (FIG2_GRID_BOUND_TEST,)),
    ("scenarios: the coarse grid equal to the fine grid", SCENARIOS,
     "coarse = fig2_grid(params, params.n_z // 2, fine.t_probe)",
     "coarse = fig2_grid(params, params.n_z, fine.t_probe)",
     (RICHARDSON_TEST,)),
    # Rows that print the same ten digits: only a bit-exact comparison with
    # `run`'s summary sees the sweep's points run one ulp off their depths.
    ("cli: a swept number one ulp above its listed value", "src/magnonbs/cli.py",
     "patched[section][key] = parse(repr(float(value)))",
     "patched[section][key] = parse(repr(math.nextafter(float(value), math.inf)))",
     ("tests/test_cli.py::test_sweep_rows_equal_the_run_summary_at_each_point[medium.od]",)),
    ("cli: the sweep checks each point only as it steps", "src/magnonbs/cli.py",
     "for traj in evolve_batch(runs)]",
     "for run in runs for traj in evolve_batch([run])]",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[sweep --override sweep.values=2,3,4,5,1e7]",)),
    ("mbloch: a grid's runs stepped shortest first", MBLOCH,
     "key=lambda i: -runs[i][2].n_steps)",
     "key=lambda i: runs[i][2].n_steps)",
     ("tests/test_cli.py::test_sweep_steps_one_step_group_per_call",)),
    ("cli: a sweep stepped in solver calls of four points", "src/magnonbs/cli.py",
     "for traj in evolve_batch(runs)]",
     "for lo in range(0, len(runs), 4) for traj in evolve_batch(runs[lo : lo + 4])]",
     ("tests/test_cli.py::test_sweep_steps_one_step_group_per_call",)),
    ("cli: a sweep's points record their emission", "src/magnonbs/cli.py",
     "snapshot_times=(), record_emission=False)",
     "snapshot_times=(), record_emission=True)",
     ("tests/test_cli.py::test_sweep_steps_one_step_group_per_call",)),
    ("cli: a sweep's points keep their snapshot times", "src/magnonbs/cli.py",
     "snapshot_times=(), record_emission=False)",
     "record_emission=False)",
     ("tests/test_cli.py::test_sweep_steps_one_step_group_per_call",)),
    ("cli: a sweep's point count unbounded", "src/magnonbs/cli.py",
     '"num": (_rows, 6),',
     '"num": (_count, 6),',
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[sweep --override sweep.num=100001]",)),
    ("cli: a list of values unbounded", "src/magnonbs/cli.py",
     "if len(values) > _MAX_ROWS:",
     "if False:",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[sweep --override sweep.values=<100001 values>]",)),
    ("cli: no bound on a table's rows", "src/magnonbs/cli.py",
     "_MAX_ROWS = 100_000",
     "_MAX_ROWS = 100_000_000",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute",)),
    ("cli: fig4's points per axis bounded, not its rows", "src/magnonbs/cli.py",
     "if value * value > _MAX_ROWS:",
     "if value > _MAX_ROWS:",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[fig4 --override scenario.fig4_steps=317]",)),
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
     "if not -max_detuning <= lo <= hi <= max_detuning:",
     "if False:",
     (UNDERFLOW_TEST,)),
    # A NaN or infinite detuning then fails the detuning bound instead, with
    # that bound's message.
    ("splitter: the phase sweep lets non-finite detunings through", SPLITTER,
     "math.isfinite(lo) and math.isfinite(hi)",
     "True",
     ("tests/test_splitter.py::test_phi_rt_sweep_is_the_scalar_estimate_over_an_array",
      CHUNK_TEST)),
    # The output's last entries are then whatever its memory held.
    ("splitter: the phase sweep's last partial chunk dropped", SPLITTER,
     "for k in range(0, flat.size, _SWEEP_CHUNK):",
     "for k in range(0, flat.size - _SWEEP_CHUNK + 1, _SWEEP_CHUNK):",
     (CHUNK_TEST,)),
    ("splitter: the phase sweep raises an underflow before a degenerate den", SPLITTER,
     "        if (np.abs(den) < floor).any():\n            raise ConfigError(_DEGENERATE)\n",
     "        if (np.abs(xi) < 1e-300).any():\n            raise ConfigError(_UNDERFLOW)\n"
     "        if (np.abs(den) < floor).any():\n            raise ConfigError(_DEGENERATE)\n",
     (CHUNK_TEST,)),
    ("splitter: the phase sweep in one chunk however long", SPLITTER,
     "_SWEEP_CHUNK = 4096",
     "_SWEEP_CHUNK = 2**40",
     ("tests/test_splitter.py::test_a_phase_sweep_holds_one_chunk_besides_its_output",)),
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
    ("mbloch: drop the medium bound", MBLOCH,
     "if rate * dt > _MAX_MEDIUM_STEP:",
     "if False:",
     (MEDIUM_BOUND_TEST, *MEDIUM_BOUND_CLI_TESTS)),
    ("mbloch: the medium bound reads delta, not |delta|", MBLOCH,
     '("detuning", "|delta|", abs(medium.delta))',
     '("detuning", "|delta|", medium.delta)',
     (MEDIUM_BOUND_TEST,)),
    ("mbloch: drop the step bound", MBLOCH,
     "if self.t_end / self.dt - 1e-9 > _MAX_STEPS:",
     "if False:",
     ("tests/test_mbloch.py::test_a_run_may_take_up_to_the_step_bound",
      "tests/test_cli.py::test_bad_input_is_a_config_error_before_compute"
      "[run --override grid.t_end=1e12]")),
    # Forward and mirrored runs then sample the drive a step apart.
    ("mbloch: sample the drive one step late", MBLOCH,
     "timeline.rabi((np.arange(n0, n1) + 0.5) * dt)",
     "timeline.rabi((np.arange(n0, n1) + 1.5) * dt)",
     (RECIPROCITY_TEST, *WINDOW_TESTS)),
    # The maps are then the same; only the stretches and the count of
    # drive runs see it.
    ("mbloch: a window seam starts a new drive run at an unchanged drive", MBLOCH,
     "new[0] = n0 == 0 or control[0] != drives[-1]",
     "new[0] = True",
     ("tests/test_mbloch.py::test_a_constant_drive_across_several_windows_is_one_drive_run",
      *WINDOW_TESTS)),
    # Each window after the first then skips the step at its seam.
    ("mbloch: a window seam one step off", MBLOCH,
     "            n0 = n1\n",
     "            n0 = n1 + 1\n",
     WINDOW_TESTS),
    ("mbloch: the drive sampled at every step of the run at once", MBLOCH,
     "_DRIVE_WINDOW = 4096",
     "_DRIVE_WINDOW = 2**22",
     PLANNING_MEMORY_TESTS),
    # A drive 1e-6 off in the generator moves the emission by about as much
    # as an od 1e-6 off, far past the exact oracle's roundoff.
    ("mbloch: the drive 1e-6 high in the generator", MBLOCH,
     "gen[:, 1, 2] = gen[:, 2, 1] = 0.5j * drives",
     "gen[:, 1, 2] = gen[:, 2, 1] = 0.5j * drives * (1.0 + 1e-6)",
     (ORACLE_STEP_TEST,)),
    # The fault is symmetric under transposition, so the reciprocity test
    # cannot see it; the written-out references can.
    ("mbloch: R_s R_{s+1} at a drive-run boundary", MBLOCH,
     "np.matmul(half[1:], half[:-1], out=",
     "np.matmul(half[:-1], half[1:], out=",
     ("tests/test_mbloch.py::test_step_loop_matches_the_written_out_reference", *BATCH_TESTS)),
    ("mbloch: emission kept for a run that records none", MBLOCH,
     "np.empty(n_i if config.record_emission else 0, dtype=complex)",
     "np.empty(n_i, dtype=complex)",
     ("tests/test_mbloch.py::test_a_run_that_records_no_emission_is_the_recording_run_without_it",
      "tests/test_mbloch.py::test_runs_recording_no_emission_hold_little_per_step")),
    ("mbloch: the emitted field left writeable", MBLOCH,
     "self.emitted.setflags(write=False)",
     "self.emitted.setflags(write=True)",
     ("tests/test_mbloch.py::test_batch_members_own_their_outputs", PICKLE_TEST)),
    # The ledger's loss then drifts from the physics by 0.1% of the light
    # that leaves; only the loss quadrature can see it.
    ("mbloch: the emitted norm counted 0.1% high", MBLOCH,
     "emitted_i = emitted_norm[i] + dz * dot(cells, cells)",
     "emitted_i = emitted_norm[i] + 1.001 * dz * dot(cells, cells)",
     ("tests/test_acceptance.py::"
      "test_the_mixing_points_keep_their_ledger_loss_on_the_loss_quadrature",)),
    # The window's cells then count again at each later read, until the
    # read check finds more norm emitted and held than came in.
    ("mbloch: a snapshot adds its window to the ledger", MBLOCH,
     "if closes or last:",
     "if True:",
     ("tests/test_mbloch.py::test_snapshots_move_no_ledger_number",)),
    ("mbloch: drop the read check", MBLOCH,
     "if held + emitted_i > budget + PROBABILITY_SLACK:",
     "if False:",
     ("tests/test_mbloch.py::test_a_held_norm_above_the_input_stops_the_run",
      GAIN_FAULT_TEST)),
    # The held norm alone never passes the input there: the gain's norm
    # has left the cell.
    ("mbloch: the read check without the emitted norm", MBLOCH,
     "if held + emitted_i > budget + PROBABILITY_SLACK:",
     "if held > budget + PROBABILITY_SLACK:",
     (GAIN_FAULT_TEST,)),
    # Plain unpickling then skips __post_init__, which freezes the arrays.
    ("core: the array values' base loses its __reduce__", CORE,
     "    def __reduce__(self):\n",
     "    def _reduce(self):\n",
     (PICKLE_TEST,)),
    ("mbloch: an initial state enters without its first half step", MBLOCH,
     "matmul(halves[i], v_rev, out=states[0, i])",
     "copyto(states[0, i], v_rev)",
     ("tests/test_mbloch.py::test_a_run_continued_from_a_final_state_is_the_uninterrupted_run",)),
    # The readout reference takes G from the optical depth itself.
    ("core: a 1% error in MediumParams.coupling", CORE,
     "return math.sqrt(self.od * C_EFF / 2.0)",
     "return 1.01 * math.sqrt(self.od * C_EFF / 2.0)",
     ("tests/test_mbloch.py::test_readout_of_a_stored_wave_matches_its_continuum_reference",)),
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
    # A Gram transposed is its conjugate: the detuned gate point's exact g2
    # then moves from 0.9551 to 0.9980, and its cross term's real part to
    # -1.7e-4, within the sign check's 1e-3.
    ("splitter: the magnon Gram transposed", SPLITTER,
     "run_a.final_state.dz * (spin.conj() @ spin.T),",
     "run_a.final_state.dz * (spin.conj() @ spin.T).T,",
     ("tests/test_scenarios.py::"
      "test_the_oracle_gives_the_exact_coincidence_at_the_gate_points",)),
    ("scenarios: drop the storage run from triangle_check's loss gap",
     SCENARIOS,
     "(stored.trajectory, result.run_magnon, result.run_photon)),",
     "(result.run_magnon, result.run_photon)),",
     ("tests/test_acceptance.py::test_criterion_5_triangle_consistency",
      "tests/test_acceptance.py::test_criterion_7_conservation_and_grid",
      "tests/test_scenarios.py",
      "tests/test_scenarios.py::"
      "test_triangle_check_counts_the_storage_run_in_its_loss_gap")),
    ("scenarios: the stored state keeps the field left in the cell", SCENARIOS,
     "FieldState(fin.z_grid, zero, fin.sigma12, zero)",
     "FieldState(fin.z_grid, fin.e_field, fin.sigma12, zero)",
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
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute",
      "tests/test_core.py::test_medium_rejects_bad_parameters")),
    ("scenarios: v_group squares the drive with **", SCENARIOS,
     "w2 = abs(rabi) * abs(rabi)",
     "w2 = abs(rabi) ** 2",
     ("tests/test_cli.py::test_bad_input_is_a_config_error_before_compute",
      "tests/test_mbloch.py::"
      "test_a_storage_drive_without_a_finite_group_velocity_is_a_config_error")),
    ("cli: a config file that is not UTF-8 escapes as a traceback", "src/magnonbs/cli.py",
     "except UnicodeDecodeError as exc:",
     "except LookupError as exc:",
     ("tests/test_cli.py::test_a_config_file_that_is_not_utf8_is_a_config_error",)),
    ("cli: run's time column computed whole", "src/magnonbs/cli.py",
     '("t", _PerStep(traj)),',
     '("t", traj.times),',
     (RUN_MEMORY_TEST,)),
    ("cli: run's drive column computed whole", "src/magnonbs/cli.py",
     '("control_abs", _PerStep(traj, lambda t: np.abs(timeline.rabi(t)))),',
     '("control_abs", np.abs(timeline.rabi(traj.times))),',
     (RUN_MEMORY_TEST,)),
    ("cli: run's per-step columns restart at each chunk of rows", "src/magnonbs/cli.py",
     "np.arange(*rows.indices(self.n_steps))",
     "np.arange(len(range(*rows.indices(self.n_steps))))",
     ("tests/test_cli.py::test_run_writes_the_time_and_drive_of_every_step",)),
    ("cli: write_csv lets a column of another length through", "src/magnonbs/cli.py",
     "if any(len(v) != n_rows for v in values):",
     "if False:",
     ("tests/test_cli.py::test_write_csv_format",)),
    ("cli: write_csv's last partial chunk of rows dropped", "src/magnonbs/cli.py",
     "for k in range(0, n_rows, _CSV_CHUNK):",
     "for k in range(0, n_rows - _CSV_CHUNK + 1, _CSV_CHUNK):",
     ("tests/test_cli.py::test_write_csv_cells_match_the_row_by_row_reference",)),
    ("cli: write_csv formats every row at once", "src/magnonbs/cli.py",
     "_CSV_CHUNK = 1024",
     "_CSV_CHUNK = 2**40",
     ("tests/test_cli.py::test_write_csv_holds_one_chunk_of_rows",)),
    ("cli: a float array column formatted to nine digits", "src/magnonbs/cli.py",
     "return [_FLOAT_FMT % v for v in values.tolist()]",
     'return ["%.9g" % v for v in values.tolist()]',
     ("tests/test_cli.py::test_write_csv_cells_match_the_row_by_row_reference",)),
    ("mbloch: the generator reads |delta|", MBLOCH,
     "gen[:, 1, 1] = -(1.0 - 1j * medium.delta)",
     "gen[:, 1, 1] = -(1.0 - 1j * abs(medium.delta))",
     ("tests/test_splitter.py::test_flipping_the_detuning_conjugates_the_grams_exactly",)),
    # An od error of 4 dt: 0.2% at n_z 160, 0.4% at n_z 80.
    ("mbloch: a first-order error in the coupling", MBLOCH,
     "gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling\n",
     "gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling * (1.0 + 4.0 * dt_half)\n",
     ("tests/test_scenarios.py::test_the_resonant_gate_point_converges_at_second_order",)),
    # The same error fails criterion 7 itself, on its order, halving and
    # extrapolated-gap checks, not only the contract.
    ("mbloch: a first-order error in the coupling, against criterion 7", MBLOCH,
     "gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling\n",
     "gen[:, 0, 1] = gen[:, 1, 0] = 1j * medium.coupling * (1.0 + 4.0 * dt_half)\n",
     ("tests/test_acceptance.py::test_criterion_7_fails_on_a_first_order_coupling_error[exact]",)),
    # A resonant group steps its real rows alone, so its Grams stay real
    # whatever its maps; the maps' block between the real rows and the
    # others shows the fault, and a six-row group's Grams do.
    ("mbloch: a real part on the coupling", MBLOCH,
     "1j * medium.coupling",
     "(1e-3 + 1j) * medium.coupling",
     ("tests/test_splitter.py::test_grams_on_resonance_are_exactly_real",
      "tests/test_mbloch.py::test_a_resonant_half_map_keeps_the_real_rows_apart")),
    # A traced test that no mutant names, in a module whose traced tests
    # all have one.
    ("tests: a traced test no mutant names", "tests/test_mbloch.py",
     "def test_a_pulse_is_held_a_window_at_a_time():",
     "def test_an_unnamed_traced_test():\n"
     "    traced(int)\n\n\n"
     "def test_a_pulse_is_held_a_window_at_a_time():",
     ("tests/test_contract.py::test_every_traced_test_is_named_by_a_mutant",)),
    # A number rewritten within the tolerance then moves.
    ("contract: the tool compares text only", "tools/contract.py",
     "if a % 2 and not same_number(new[b], old[a]):",
     "if a % 2 and new[b] != old[a]:",
     ("tests/test_contract.py::"
      "test_the_contract_tool_reports_exactly_the_token_that_moved",)),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_tests(tree: Path, ids: tuple[str, ...]) -> tuple[int, list[str]]:
    """Pytest's exit code and the ids it reports as failed or in error."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=tree, capture_output=True, text=True,
    )
    return proc.returncode, _FAILED.findall(proc.stdout)


def try_mutant(tree: Path, name: str, rel: str, old: str, new: str,
               ids: tuple[str, ...]) -> tuple[str, bool]:
    """The mutant's result line, and whether a named test killed it."""
    path = tree / rel
    original = path.read_text()
    if original.count(old) != 1:
        return f"stale     {name}: old text found {original.count(old)} times", False
    path.write_text(original.replace(old, new))
    try:
        code, failed = run_tests(tree, ids)
    finally:
        path.write_text(original)
    if code == 1:
        more = f" and {len(failed) - 1} more" if len(failed) > 1 else ""
        return f"killed    {name}  by {failed[0]}{more}", True
    if code == 0:
        return f"survived  {name}", False
    return f"error     {name}: pytest exit {code}", False


def main() -> int:
    cores = os.cpu_count() or 1
    workers = min(2, cores)
    # Each pytest gets its share of the cores for OpenBLAS's threads: on 2
    # cores, two runs that each spun a thread per core took the catalogue
    # 304 s where capped runs took 231 s.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(cores // workers))
    with tempfile.TemporaryDirectory() as tmp:
        free: queue.SimpleQueue[Path] = queue.SimpleQueue()
        for k in range(workers):
            tree = Path(tmp) / f"repo{k}"
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".out"))
            free.put(tree)
        all_ids = tuple(dict.fromkeys(i for m in MUTANTS for i in m[4]))
        code, failed = run_tests(tree, all_ids)
        if code != 0:
            print(f"the unchanged tree fails its tests (exit {code}): {failed}")
            return 1

        def on_a_free_tree(mutant: tuple) -> tuple[str, bool]:
            tree = free.get()
            try:
                return try_mutant(tree, *mutant)
            finally:
                free.put(tree)

        not_killed = 0
        with ThreadPoolExecutor(workers) as pool:
            for line, killed in pool.map(on_a_free_tree, MUTANTS):
                print(line, flush=True)
                not_killed += not killed
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())
