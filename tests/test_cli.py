import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced
from magnonbs import ConfigError, PhysicsViolation, cli, mbloch, scenarios
from magnonbs.cli import (
    GAMMA31_MHZ,
    NS_TO_NORM,
    _apply_value,
    _fmt,
    _parse_segments,
    _parse_triples,
    _sweep_values,
    header_lines,
    load_config,
    main,
    write_csv,
)


def test_defaults_resolve_without_a_file():
    config = load_config(None, [])
    assert config["medium"]["od"] == 30.0
    assert config["pulse"]["fwhm"] == 1.5
    # fig3's phase width is the gate's.
    assert config["scenario"]["phase_fwhm"] == scenarios.PHASE_FWHM
    assert "phase_fwhm_ns" not in config["scenario"]


def test_unit_suffixes_convert_exactly_once():
    config = load_config(
        None,
        ["medium.delta_mhz=60", "pulse.t_center_ns=100"],
    )
    # 60 MHz detuning over gamma31 = 2pi x 3 MHz is 20 normalized.
    assert config["medium"]["delta"] == pytest.approx(60.0 / GAMMA31_MHZ)
    assert config["pulse"]["t_center"] == pytest.approx(100.0 * NS_TO_NORM)
    assert "delta_mhz" not in config["medium"]


def test_config_file_and_override_precedence(tmp_path):
    ini = tmp_path / "case.ini"
    ini.write_text("[medium]\nod = 77\ndelta = 4\n", encoding="utf-8")
    config = load_config(str(ini), ["medium.delta=9"])
    assert config["medium"]["od"] == 77.0
    assert config["medium"]["delta"] == 9.0
    # The later entry wins whichever of the two carries the unit suffix.
    ini.write_text("[medium]\ndelta_mhz = 60\n", encoding="utf-8")
    assert load_config(str(ini), ["medium.delta=9"])["medium"]["delta"] == 9.0


def test_missing_config_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini", [])
    headless = tmp_path / "headless.ini"
    headless.write_text("od = 30\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(headless), [])


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[medium]\nod = 3\xff0\n")
    with pytest.raises(ConfigError, match="bad.ini"):
        load_config(str(bad), [])
    assert main(["fig3", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert sorted(tmp_path.iterdir()) == [bad]


def test_override_syntax_guards():
    with pytest.raises(ConfigError):
        load_config(None, ["odequals30"])
    with pytest.raises(ConfigError):
        load_config(None, ["od=30"])


def test_parse_triples_and_segments():
    assert _parse_triples("30:0, 66:10") == ((30.0, 0.0), (66.0, 10.0))
    with pytest.raises(ConfigError):
        _parse_triples("30-0")
    tl = _parse_segments("storage:0:2:5, beamsplit:3:5:13")
    assert tl.segments[0].label == "storage"
    assert tl.segments[1].t_end == 5.0
    with pytest.raises(ConfigError):
        _parse_segments("storage:0:2")
    with pytest.raises(ConfigError):
        _parse_segments("")


def test_sweep_value_grids():
    config = load_config(None, ["sweep.start=1", "sweep.stop=4", "sweep.num=4"])
    assert np.allclose(_sweep_values(config, 0), [1.0, 2.0, 3.0, 4.0])
    config = load_config(None, ["sweep.values=5, 2, 8"])
    assert np.allclose(_sweep_values(config, 0), [5.0, 2.0, 8.0])
    config = load_config(
        None,
        ["sweep.start=1", "sweep.stop=4", "sweep.num=3", "sweep.spacing=log"],
    )
    assert np.allclose(_sweep_values(config, 0), [1.0, 2.0, 4.0])
    config = load_config(
        None,
        ["sweep.start=0", "sweep.stop=1", "sweep.num=5",
         "sweep.spacing=random"],
    )
    first = _sweep_values(config, 11)
    again = _sweep_values(config, 11)
    other = _sweep_values(config, 12)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    with pytest.raises(ConfigError):
        _sweep_values(load_config(None, ["sweep.spacing=cubic"]), 0)


def test_header_lines_are_deterministic():
    config = load_config(None, ["medium.od=42"])
    assert header_lines("fig2", config, 3) == header_lines("fig2", config, 3)
    joined = "\n".join(header_lines("fig2", config, 3))
    assert "medium.od = 42" in joined
    assert "seed = 3" in joined


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    # Two columns may share a name: fig2's profiles repeat a drive.
    write_csv(path, ["demo header"], [
        ("a", [1.0, 2.0]),
        ("b", np.array([0.123456789012345, 3.0])),
        ("b", ["x", 4]),
    ])
    text = path.read_text(encoding="utf-8")
    assert text == "# demo header\na,b,b\n1,0.123456789,x\n2,3,4\n"
    # A column of another length raises before the file is opened.
    short = tmp_path / "short.csv"
    for columns in ([("a", [1.0, 2.0]), ("b", [1.0])], [("a", [1.0]), ("b", np.zeros(2))]):
        with pytest.raises(ValueError):
            write_csv(short, ["demo header"], columns)
        assert not short.exists()


def _row_by_row_csv(header, columns):
    # The reference writer: every cell through `_fmt` on its own, row by row.
    names, values = zip(*columns)
    text = "".join(f"# {line}\n" for line in header) + ",".join(names) + "\n"
    for row in zip(*values, strict=True):
        text += ",".join(_fmt(v) for v in row) + "\n"
    return text


def test_write_csv_cells_match_the_row_by_row_reference(tmp_path):
    # One column of each kind the commands write.
    floats = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e-300,
                       0.1 + 0.2, 1.0 / 3.0, -2.5, 123456789012.0, 1.0])
    n = floats.size
    waves = np.exp(1j * np.linspace(0.0, 3.0, n))
    columns = [
        ("float_array", floats),
        ("strided_view", waves.real),
        ("read_only", np.repeat(floats[::2], 2)),
        ("index", range(n)),
        ("py_floats", [float(v) for v in floats[::-1]]),
        ("np_float64", [np.float64(v) * 1.5 for v in floats]),
        ("ints", list(range(100, 100 + n))),
        ("quoted", [f'"point {i}, side {i % 2}"' for i in range(n)]),
        ("words", ["pass", "fail"] * (n // 2)),
    ]
    columns[2][1].setflags(write=False)
    config = load_config(None, ["control.segments=storage:0:1.5:3, beamsplit:2:4.25:1e-7"])
    header = header_lines("run", config, 7) + [f"od = {_fmt(np.float64(1e300))}"]
    assert "control.segments = storage:0:1.5:3, beamsplit:2:4.25:1e-07" in header
    path = tmp_path / "kinds.csv"
    write_csv(path, header, columns)
    assert path.read_text(encoding="utf-8") == _row_by_row_csv(header, columns)
    # Two whole chunks of rows and part of a third, and no rows at all.
    n = 2 * cli._CSV_CHUNK + 3
    for rows in (n, 0):
        columns = [("index", range(rows)), ("wave", np.sin(np.arange(rows) / 7.0)),
                   ("floats", (np.arange(rows) / 3.0).tolist()), ("words", ["x"] * rows)]
        write_csv(path, header, columns)
        assert path.read_text(encoding="utf-8") == _row_by_row_csv(header, columns)


def test_run_holds_only_its_recorded_emission_per_step(tmp_path):
    # `run` keeps the field emitted at each step, 16 B, and computes its
    # time and drive columns a chunk of rows at a time as they are written:
    # 16.3 B per step measured between 2,400 and 9,600 steps at n_z 16,
    # where either column computed whole takes 25 B, both 33 B.  A short
    # run first takes the caches a process allocates once.
    def peak(t_end):
        def run():
            assert main(["run", "--out", str(tmp_path), "--override", "grid.n_z=16",
                         "--override", f"grid.t_end={t_end}"]) == 0
        return traced(run)[1]

    peak(1)
    assert (peak(50) - peak(12.5)) / (192 * 37.5) < 20.0


def test_run_writes_the_time_and_drive_of_every_step(tmp_path):
    # 19 chunks of rows, under ramps that start and end off their seams:
    # each row's time and drive are those of the whole run's step midpoints.
    segments = "storage:0:3.3:5, beamsplit:5.2:5.4:13, readout:5.4:50.7:7, off:52:99.9:-3"
    assert main(["run", "--out", str(tmp_path), "--override", "grid.n_z=16", "--override",
                 "grid.t_end=100", "--override", f"control.segments={segments}"]) == 0
    lines = (tmp_path / "run_emitted.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    times = (np.arange(19_200) + 0.5) * mbloch.SimulationConfig(t_end=100, n_z=16).dt
    drive = np.abs(load_config(None, [f"control.segments={segments}"])["control"]["segments"]
                   .rabi(times))
    assert len(np.unique(drive)) > 100  # the ramps
    assert [row[0] for row in rows] == [cli._FLOAT_FMT % t for t in times]
    assert [row[3] for row in rows] == [cli._FLOAT_FMT % c for c in drive]


def test_write_csv_holds_one_chunk_of_rows(tmp_path):
    # Four times the rows take no more memory while they are written,
    # here allowed 16 kB per 150,000 rows: the growth measured 0 B between
    # 16,384 and 65,536 rows, whose last cells take as many digits.  All
    # rows formatted at once took about 377 B per row of `run`'s four
    # columns (68.9 MB for 192,000 rows), and 165 B per row of these two.
    # The first table of a process allocates caches once, so a short one
    # goes first.
    def peak(rows):
        t = np.arange(rows) * 1e-3
        return traced(write_csv, tmp_path / "long.csv", ["demo header"],
                      [("t", t), ("e_out_re", np.cos(t))])[1]

    peak(1_000)
    assert peak(65_536) - peak(16_384) < 16_384 * (65_536 - 16_384) / 150_000


def test_missing_output_directory_fails_before_compute(tmp_path):
    rc = main(["fig4", "--out", str(tmp_path / "absent")])
    assert rc == 2


def test_bad_override_fails_with_config_error(tmp_path):
    rc = main(["fig4", "--out", str(tmp_path), "--override", "nonsense"])
    assert rc == 2


def test_fig4_outputs_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    assert main(["fig4", "--out", str(out1)]) == 0
    assert main(["fig4", "--out", str(out2)]) == 0
    for name in ("fig4_surface.csv", "fig4_corners.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fig3_emits_phase_header_and_bounds(tmp_path):
    assert main(["fig3", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fig3_delay.csv").read_text(encoding="utf-8")
    assert "# phi_rt(od=30, delta=0) = 0" in text
    assert text.splitlines()[-1].endswith("0.5,1.5")
    phase = (tmp_path / "fig3_phase.csv").read_text(encoding="utf-8")
    header = [ln for ln in phase.splitlines() if not ln.startswith("#")][0]
    assert header == "phi_rt,g2,classical_lo,classical_hi"


def test_run_emits_tables_with_summary_header(tmp_path):
    rc = main(
        [
            "run", "--out", str(tmp_path),
            "--override", "grid.t_end=6",
            "--override", "grid.n_z=64",
            "--override", "grid.snapshots=2,4",
            "--override", "control.segments=beamsplit:0:6:13",
        ]
    )
    assert rc == 0
    emitted = (tmp_path / "run_emitted.csv").read_text(encoding="utf-8")
    assert "# emitted_norm = " in emitted
    assert "# loss = " in emitted
    snaps = (tmp_path / "run_snapshots.csv").read_text(encoding="utf-8")
    times = {
        line.split(",")[0]
        for line in snaps.splitlines()
        if line and not line.startswith("#") and not line.startswith("t,")
    }
    assert len(times) == 2


def test_run_prints_the_loss_gap_of_a_grid_that_does_not_resolve_its_medium(tmp_path):
    # At od 6,144 on 16 cells G dt is 1: the run passes the step bound, and
    # its loss quadrature misses the ledger's loss by about 16%.  The header
    # prints both and their gap, the trajectory's, which its own numbers
    # give again.
    overrides = ["grid.n_z=16", "grid.t_end=10", "medium.od=6144"]
    assert main(["run", "--out", str(tmp_path),
                 *(a for o in overrides for a in ("--override", o))]) == 0
    header = (tmp_path / "run_emitted.csv").read_text(encoding="utf-8").splitlines()
    summary = dict(line[2:].split(" = ", 1) for line in header if " = " in line)
    medium, timeline, sim, pulse = cli._build_run(load_config(None, overrides))
    traj = mbloch.evolve(medium, timeline, sim, pulse=pulse)
    assert summary["loss_quad"] == cli._fmt(traj.loss_quad)
    assert summary["loss_gap"] == cli._fmt(traj.loss_gap)
    quad, loss, gap = (float(summary[k]) for k in ("loss_quad", "loss", "loss_gap"))
    assert gap == pytest.approx(abs(quad - loss) / loss, rel=1e-8)
    assert 0.1 < gap < 0.2


@pytest.mark.parametrize("sweep", [
    ["sweep.parameter=medium.od", "sweep.start=5", "sweep.stop=60", "sweep.num=5"],
    ["sweep.parameter=grid.n_z", "sweep.values=32,48,32,24,48"],
    ["sweep.parameter=control.rabi", "sweep.values=10,20000,13,12000,7"],
    ["sweep.parameter=medium.od", "sweep.values=5,30,60",
     "grid.snapshots=" + ",".join(f"{0.1 * k:.1f}" for k in range(1, 50))],
], ids=["medium.od", "grid.n_z", "control.rabi", "grid.snapshots"])
def test_sweep_rows_equal_the_run_summary_at_each_point(sweep, tmp_path, monkeypatch):
    # `run` steps each point on its own through `evolve` and writes its
    # summary in its header; the sweep steps its points together.  The
    # drives of 12,000 and 20,000 give half-step generators whose 1-norm
    # passes expm's threshold for scaling, and share solver calls with
    # drives whose generators stay below it.  With `grid.snapshots`, the
    # sweep takes none and `run` takes all 49, which leave its ledger and
    # its loss quadrature as they are without them.  The rows, the loss
    # quadrature and its gap included, are held to the headers as text,
    # and the summaries behind them to each other bit for bit.
    swept, ran = [], []

    def recording(solver, sink):
        def call(*args, **kwargs):
            result = solver(*args, **kwargs)
            sink.extend(result if isinstance(result, list) else [result])
            return result
        return call

    monkeypatch.setattr(cli, "evolve_batch", recording(cli.evolve_batch, swept))
    monkeypatch.setattr(cli, "evolve", recording(cli.evolve, ran))
    common = ["grid.t_end=5", "grid.n_z=32", "control.segments=beamsplit:0:5:10"]
    args = [a for o in common + sweep for a in ("--override", o)]
    assert main(["sweep", "--out", str(tmp_path)] + args) == 0
    lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    body = [line.split(",") for line in lines if not line.startswith("#")]
    names = body[0][2:]
    assert names[-2:] == ["loss_quad", "loss_gap"]
    config = load_config(None, common + sweep)
    parameter = config["sweep"]["parameter"]
    values = _sweep_values(config, 0)
    assert [row[0] for row in body[1:]] == [str(i) for i in range(len(values))]
    for row, value in zip(body[1:], values, strict=True):
        point = tmp_path / row[0]
        point.mkdir()
        override = (f"control.segments=beamsplit:0:5:{float(value)!r}"
                    if parameter == "control.rabi" else f"{parameter}={float(value)!r}")
        assert main(["run", "--out", str(point), *args, "--override", override]) == 0
        header = (point / "run_emitted.csv").read_text(encoding="utf-8").splitlines()
        summary = dict(line[2:].split(" = ", 1) for line in header if " = " in line)
        assert row[2:] == [summary[name] for name in names]
    assert len(swept) == len(ran) == len(values)
    for batched, alone in zip(swept, ran, strict=True):
        assert repr(cli._run_summary(batched)) == repr(cli._run_summary(alone))


def test_sweep_rejects_unknown_parameter():
    config = load_config(None, ["sweep.parameter=medium.nonsense"])
    with pytest.raises(ConfigError):
        _apply_value(config, "medium.nonsense", 1.0)
    with pytest.raises(ConfigError):
        _apply_value(config, "plainkey", 1.0)
    # Only numeric keys can be swept, and integer keys only to integers.
    with pytest.raises(ConfigError):
        _apply_value(config, "sweep.spacing", 1.0)
    with pytest.raises(ConfigError):
        _apply_value(config, "grid.n_z", 64.5)
    # Only what a run reads: a figure or sweep setting would change no run.
    for parameter in ("scenario.i_peak", "sweep.num", "control.segments"):
        with pytest.raises(ConfigError):
            _apply_value(config, parameter, 1.0)
    assert _apply_value(config, "grid.n_z", 64.0)["grid"]["n_z"] == 64


def test_rabi_sweep_runs_the_listed_value_exactly(tmp_path, monkeypatch):
    ran = []

    def recording_batch(runs):
        ran.extend(timeline.segments[0] for _, timeline, *_ in runs)
        return mbloch.evolve_batch(runs)

    monkeypatch.setattr(cli, "evolve_batch", recording_batch)
    overrides = [
        "sweep.spacing=random", "sweep.num=2", "grid.n_z=16", "grid.t_end=1.5",
        "control.segments=storage:0:1.23456789:5",
    ]
    args = ["sweep", "--out", str(tmp_path), "--seed", "3"]
    assert main(args + [a for o in overrides for a in ("--override", o)]) == 0
    listed = _sweep_values(load_config(None, overrides), 3)
    assert [seg.amplitude for seg in ran] == list(listed)
    assert all(seg.t_end == 1.23456789 for seg in ran)
    body = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    column = [float(line.split(",")[1]) for line in body if line[0].isdigit()]
    assert column == pytest.approx(list(listed), rel=1e-9)


@pytest.mark.parametrize("sweep", [
    ["sweep.parameter=grid.t_end", "sweep.values=0.5,1,0.25,1.5,0.75,1,0.5,1.25,2"],
    ["sweep.parameter=grid.n_z", "sweep.values=16,24,16,16,24,16,16,16,24"],
])
def test_sweep_steps_one_step_group_per_call(sweep, tmp_path, monkeypatch):
    # One evolve_batch call holds every point, none taking snapshots or
    # recording its emission; it steps each grid's points as one group,
    # longest first.
    calls, groups = [], []

    def recording_batch(runs):
        calls.append([(config.n_z, config.n_steps, config.record_emission,
                       config.snapshot_times) for _, _, config, _, _ in runs])
        return evolve_batch(runs)

    def recording_group(z, members):
        groups.append([(config.n_z, config.n_steps) for _, _, config, _, _ in members])
        return step_together(z, members)

    evolve_batch, step_together = mbloch.evolve_batch, mbloch._step_together
    overrides = ["grid.n_z=16", "grid.t_end=1", "grid.snapshots=0.1,0.2",
                 "control.segments=beamsplit:0:1:5", *sweep]
    monkeypatch.setattr(cli, "evolve_batch", recording_batch)
    monkeypatch.setattr(mbloch, "_step_together", recording_group)
    assert main(["sweep", "--out", str(tmp_path),
                 *(a for o in overrides for a in ("--override", o))]) == 0
    (call,) = calls
    assert len(call) == 9 and not any(record or snaps for _, _, record, snaps in call)
    assert sorted(groups) == sorted(
        sorted(((n_z, n) for n_z, n, *_ in call if n_z == grid), key=lambda p: -p[1])
        for grid in {n_z for n_z, *_ in call}
    )


@pytest.fixture
def no_solver(monkeypatch):
    """Make any stepping or map building fail the test.

    Every run steps in `mbloch._step_together` and every propagator is
    built by `expm` as bound in `mbloch`, so a solver call may enter
    `evolve_batch` and its checks, but no further.
    """

    def forbidden(*args, **kwargs):
        raise AssertionError("solver called")

    monkeypatch.setattr(mbloch, "_step_together", forbidden)
    monkeypatch.setattr(mbloch, "expm", forbidden)


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--override", "grid.n_z=abc"],
        ["run", "--override", "grid.n_z=160.9"],
        ["run", "--override", "medium.odd=30"],
        ["run", "--override", "pulse.fwhm=nan"],
        # A width whose 4 sigma^2, the amplitude's divisor, underflows to 0.
        ["run", "--override", "pulse.fwhm=1e-200"],
        ["run", "--override", "grid.t_end=inf"],
        ["fig4", "--override", "scenario.fig4_steps=2.5"],
        ["fig4", "--override", "scenario.fig4_steps=0"],
        ["sweep", "--override", "sweep.num=0"],
        ["fig3", "--override", "scenario.delay_steps=abc"],
        # Tables of more than 100,000 rows: fig4's surface has n^2.
        ["fig3", "--override", "scenario.delay_steps=100001"],
        ["fig3", "--override", "scenario.phase_steps=100001"],
        ["fig4", "--override", "scenario.fig4_steps=317"],
        ["sweep", "--override", "sweep.num=100001"],
        pytest.param(["sweep", "--override", "sweep.values=" + ",".join(["2"] * 100_001)],
                     id="sweep --override sweep.values=<100001 values>"),
        ["fig2", "--override", "scenario.ods=abc"],
        ["fig2", "--override", "scenario.ods=30,-5"],
        ["fig2", "--override", "scenario.rabi_s_grid=0"],
        # Squaring the drive, or 4 G^2 from the depth, overflows to inf;
        # every fig2 plan fails before the first curve writes its tables.
        ["fig2", "--override", "scenario.rabi_s_grid=1e200"],
        ["fig2", "--override", "scenario.ods=30,1e308"],
        ["run", "--override", "medium.od=1e308"],
        # More steps than a run may take: 1.9e15 steps, and storage runs of
        # 5.8e10 and 2.3e7 steps behind the weak drives.
        ["run", "--override", "grid.t_end=1e12"],
        ["fig2", "--override", "scenario.ods=30", "--override", "scenario.rabi_s_grid=1e-3"],
        ["fig2", "--override", "scenario.ods=30", "--override", "scenario.rabi_s_grid=0.05"],
        ["sweep", "--override", "sweep.parameter=grid.n_z",
         "--override", "sweep.values=32,8"],
        ["run", "--override", "grid.snapshots=-3"],
        ["run", "--override", "grid.snapshots=50"],
        ["sweep", "--override", "sweep.parameter=grid.t_end",
         "--override", "sweep.values=8,2", "--override", "grid.snapshots=5"],
        ["fig3", "--override", "output.prefix=x"],
        ["run", "--override", "pulse.fwhm_ns=1, 2"],
        ["fig4", "--seed", "x"],
        ["fig4", "--seed", "1.5"],
        ["accept", "--override", "medium.od=1"],
        # Empty lists that would leave the command nothing to compute.
        ["fig2", "--override", "scenario.ods="],
        ["sweep", "--override", "sweep.values="],
        ["fig3", "--override", "scenario.triples="],
        # A key that no run reads would give identical rows.
        ["sweep", "--override", "sweep.parameter=scenario.i_peak",
         "--override", "sweep.num=3"],
        ["sweep", "--override", "sweep.spacing=random", "--seed", "-1"],
        # The pulse area overflows to inf rather than raising OverflowError.
        ["fig3", "--override", "scenario.phase_rabi=1e200"],
        # A finite od large enough to overflow the estimate's denominator
        # (the drive gives a pulse area of about 4).
        ["fig3", "--override", "scenario.phase_rabi=3.76",
         "--override", "scenario.triples=1.7e308:2"],
        # A detuning so far past the pulse area that (1 - xi)^2 underflows.
        ["fig3", "--override", "scenario.triples=30:1e300"],
        # A delay span whose square, and so the delay axis, overflows.
        ["fig3", "--override", "scenario.delay_span=1e308"],
        ["fig4", "--override", "scenario.fig4_span=1e308"],
        # A drive past the grid's bound at the last point, which would be
        # stepped after the first group of points.
        ["sweep", "--override", "sweep.values=2,3,4,5,1e7"],
        # A drive past the bound on the second curve's coarse grid only (40
        # cells; the first curve's are 120 and 60), which would fail after
        # the first curve wrote its tables.
        ["fig2", "--override", "scenario.ods=150,30", "--override", "scenario.rabi_s_grid=5e5"],
        # A coupling or a detuning past the grid's bound: at n_z 16 the
        # exponential overflows (od 1e160, delta 1e100) or the run ends
        # with G dt = 1.3e98 (od 1e200) or |delta| dt = 5.2e297.
        *(["run", "--override", "grid.n_z=16", "--override", "grid.t_end=0.5",
           "--override", medium]
          for medium in ("medium.od=1e160", "medium.od=1e200", "medium.delta=1e100",
                         "medium.delta=1e300")),
        # What argparse rejects: the deleted --workers, a misspelt option,
        # an unknown command, a missing one and an option with no value.
        ["sweep", "--workers", "2"],
        ["fig3", "--sede", "1"],
        ["fig5"],
        [],
        ["fig4", "--seed"],
    ],
    ids=" ".join,
)
def test_bad_input_is_a_config_error_before_compute(args, tmp_path, capsys, no_solver):
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert list(tmp_path.iterdir()) == []


def test_tables_may_have_up_to_the_row_bound():
    # 316^2 = 99,856 rows of fig4's surface; 317^2 is past the bound.
    sizes = {"fig4_steps": 316, "delay_steps": 100_000, "phase_steps": 100_000}
    config = load_config(None, [f"scenario.{key}={n}" for key, n in sizes.items()])
    assert {key: config["scenario"][key] for key in sizes} == sizes
    # A sweep's table has a row per point.
    sweep = load_config(None, ["sweep.num=100000",
                               "sweep.values=" + ",".join(["2"] * 100_000)])["sweep"]
    assert (sweep["num"], len(sweep["values"])) == (100_000, 100_000)


def test_fig4_accepts_a_fig3_key(tmp_path):
    assert main(["fig4", "--out", str(tmp_path),
                 "--override", "scenario.i_peak=0.6"]) == 0


def test_help_lists_every_command_with_its_line(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    for name, line in (
        ("fig2", "storage-drive sweep: profiles, overlap, g2 tables"),
        ("fig3", "interference crossover: g2 vs delay and vs phase"),
        ("fig4", "three-particle surface and corner values"),
        ("run", "single propagation run from the config file"),
        ("sweep", "parameter sweep, its points stepped together"),
        ("accept", "run the acceptance suite and report pass/fail"),
    ):
        assert f"  {name:<8}{line}\n" in out


def test_options_may_come_before_or_after_the_command(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    settings = ["--seed", "5", "--override", "scenario.fig4_steps=3"]
    assert main([*settings, "--out", str(before), "fig4"]) == 0
    assert main(["fig4", *settings, "--out", str(after)]) == 0
    for name in ("fig4_surface.csv", "fig4_corners.csv"):
        assert (before / name).read_bytes() == (after / name).read_bytes()


def test_physics_violation_exits_with_its_own_code(tmp_path, capsys, monkeypatch):
    def violating(*args, **kwargs):
        raise PhysicsViolation("held norm exceeds input")

    monkeypatch.setattr(cli, "evolve", violating)
    assert main(["run", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["physics violation: held norm exceeds input"]


def _drive_run(drive):
    return ["run", "--override", f"control.segments=beamsplit:0.5:1:{drive}",
            "--override", "grid.n_z=16", "--override", "grid.t_end=1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("drive", ["1e17", "1e18", "6e18", "1e20", "1e22", "1e200"])
def test_a_drive_the_grid_cannot_resolve_is_a_config_error(drive, tmp_path, capsys,
                                                           monkeypatch):
    # At n_z 16 a step is 1/192, so the bound |Omega| dt <= 1e3 allows
    # drives up to 1.92e5.  Beyond it the maps' roundoff breaks the ledger
    # (1e17 to 6e18), overflows the state (1e20, 1e22) or the exponential
    # (1e200); each drive is rejected before a step map is built.
    def forbidden(*args, **kwargs):
        raise AssertionError("a step map was built")

    monkeypatch.setattr(mbloch, "expm", forbidden)
    assert main(_drive_run(drive) + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: control drive ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_a_drive_just_under_the_grid_bound_runs(tmp_path):
    assert main(_drive_run("1.9e5") + ["--out", str(tmp_path)]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, far, near", [
    ("control.segments", "beamsplit:0:1e308:5", "beamsplit:0:1e6:5"),
    ("pulse.t_center", "1e200", "1e6"),
], ids=["segment end", "pulse centre"])
def test_a_far_segment_end_or_pulse_centre_runs_as_a_near_one(key, far, near, tmp_path):
    # A ramp coordinate is clipped before its division and the pulse's
    # distance before its square, so neither overflows: the drive of a
    # segment ending at 1e308 and a probe centred at 1e200 are those of
    # 1e6 on every step, and only the header line of the key differs.
    tables = []
    for value in (far, near):
        out = tmp_path / value
        out.mkdir()
        assert main(["run", "--out", str(out), "--override", f"{key}={value}",
                     "--override", "grid.n_z=16", "--override", "grid.t_end=1"]) == 0
        for name in ("run_emitted.csv", "run_final.csv"):
            lines = (out / name).read_text(encoding="utf-8").splitlines()
            tables.append([line for line in lines if not line.startswith(f"# {key} = ")])
    assert tables[:2] == tables[2:]


@pytest.mark.parametrize(
    "change, code, line",
    [
        ({}, 3, "physics violation: held norm "),
        ({"ref_rabi_s": 1e200}, 2, "config error: storage drive must be nonzero and finite"),
    ],
    ids=["physics violation", "config error"],
)
def test_an_error_in_a_gate_curve_gives_its_exit_code(
    change, code, line, tmp_path, capsys, monkeypatch
):
    # The gate's curves, here on 64 and 32 cells with a quarter-grid run on
    # 16, raise in this process and exit as any command does.  No drive the
    # solver accepts breaks its maps, so for the physics violation the half
    # maps of the deep curve's beamsplit drive are scaled by 1.001.
    from magnonbs import acceptance

    shallow, deep = (replace(params, n_z=64) for params in acceptance.FIG2_CURVES)
    if not change:
        local_maps = mbloch._local_maps

        def gaining(medium, drives, dt_half):
            maps = local_maps(medium, drives, dt_half)
            return 1.001 * maps if deep.rabi_bs in drives else maps

        monkeypatch.setattr(mbloch, "_local_maps", gaining)
    monkeypatch.setattr(acceptance, "FIG2_CURVES", (shallow, replace(deep, **change)))
    monkeypatch.setattr(acceptance, "_triangle_pair", lambda: ())
    assert main(["accept", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(line)
    assert multiprocessing.active_children() == []


def test_accept_writes_its_table_and_fails_on_a_failed_criterion(
    tmp_path, monkeypatch, capsys
):
    from magnonbs import acceptance

    results = [
        acceptance.CriterionResult(1, "first, with a comma", True, "x=1, y=2", 0.5),
        acceptance.CriterionResult(2, "second", False, "z=3.25 (tol 1e-6)", 1.25),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    assert main(["accept", "--out", str(tmp_path), "--seed", "4"]) == 1
    header = header_lines("accept", load_config(None, []), 4)
    assert (tmp_path / "acceptance.csv").read_text(encoding="utf-8") == (
        "".join(f"# {line}\n" for line in header)
        + "criterion,status,runtime_s,label,details\n"
        + '1,pass,0.5,"first, with a comma","x=1, y=2"\n'
        + '2,fail,1.25,"second","z=3.25 (tol 1e-6)"\n'
    )
    out = capsys.readouterr().out
    assert out == acceptance.format_report(results) + "\n"
    assert out.endswith("1/2 criteria passed\n")

    monkeypatch.setattr(acceptance, "run_all", lambda: results[:1])
    assert main(["accept", "--out", str(tmp_path)]) == 0


def test_header_lines_rebuild_the_config():
    # A table's header is enough to rerun it: its `section.key = value`
    # lines, fed back as overrides, give the same config, every float
    # exactly, also those converted from MHz and ns.
    config = load_config(None, ["pulse.fwhm_ns=100", "medium.delta_mhz=7"])
    lines = header_lines("run", config, 0)[3:]
    assert len(lines) == sum(len(keys) for keys in config.values())
    rebuilt = load_config(None, [line.replace(" = ", "=", 1) for line in lines])
    assert {s: set(kv) for s, kv in rebuilt.items()} == {
        s: set(kv) for s, kv in config.items()
    }
    mismatches = [
        f"{s}.{k}" for s, kv in config.items() for k, v in kv.items()
        if v != rebuilt[s][k]
    ]
    assert mismatches == []
