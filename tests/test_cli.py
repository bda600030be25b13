import math

import numpy as np
import pytest

from magnonbs import ConfigError, PhysicsViolation, cli, mbloch, scenarios, splitter
from magnonbs.cli import (
    GAMMA31_MHZ,
    NS_TO_NORM,
    _apply_value,
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
    # The default 100 ns phase width lands in normalized units.
    assert config["scenario"]["phase_fwhm"] == pytest.approx(
        100.0 * NS_TO_NORM
    )
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
    write_csv(
        path,
        ["demo header"],
        ["a", "b"],
        [[1.0, 0.123456789012345], [2.0, 3.0]],
    )
    text = path.read_text(encoding="utf-8")
    assert text == (
        "# demo header\na,b\n1,0.123456789\n2,3\n"
    )


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
    assert "# residual = " in emitted
    snaps = (tmp_path / "run_snapshots.csv").read_text(encoding="utf-8")
    times = {
        line.split(",")[0]
        for line in snaps.splitlines()
        if line and not line.startswith("#") and not line.startswith("t,")
    }
    assert len(times) == 2


def test_sweep_is_deterministic_across_worker_counts(tmp_path):
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    out1.mkdir()
    out2.mkdir()
    overrides = [
        "--override", "sweep.num=3",
        "--override", "grid.t_end=6",
        "--override", "grid.n_z=64",
        "--override", "control.segments=beamsplit:0:6:13",
    ]
    assert main(["sweep", "--out", str(out1), "--workers", "1"] + overrides) == 0
    assert main(["sweep", "--out", str(out2), "--workers", "2"] + overrides) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    body = [
        line
        for line in (out1 / "sweep.csv").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    assert body[0].startswith("index,control_rabi")
    assert [row.split(",")[0] for row in body[1:]] == ["0", "1", "2"]


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
    assert _apply_value(config, "grid.n_z", 64.0)["grid"]["n_z"] == 64


def test_rabi_sweep_runs_the_listed_value_exactly(tmp_path, monkeypatch):
    ran = []

    def recording_evolve(medium, timeline, sim, pulse=None):
        ran.append(timeline.segments[0])
        return mbloch.evolve(medium, timeline, sim, pulse=pulse)

    monkeypatch.setattr(cli, "evolve", recording_evolve)
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


@pytest.fixture
def no_solver(monkeypatch):
    """Make any solver call fail the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("solver called")

    for module in (cli, mbloch, scenarios, splitter):
        monkeypatch.setattr(module, "evolve", forbidden)


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--override", "grid.n_z=abc"],
        ["run", "--override", "grid.n_z=160.9"],
        ["run", "--override", "medium.odd=30"],
        ["run", "--override", "pulse.fwhm=nan"],
        ["run", "--override", "grid.t_end=inf"],
        ["fig4", "--override", "scenario.fig4_steps=2.5"],
        ["fig4", "--override", "scenario.fig4_steps=0"],
        ["sweep", "--override", "sweep.num=0"],
        ["fig3", "--override", "scenario.delay_steps=abc"],
        ["fig2", "--override", "scenario.ods=abc"],
        ["fig3", "--override", "output.prefix=x"],
        ["run", "--override", "pulse.fwhm_ns=1, 2"],
        ["sweep", "--workers", "0"],
        ["accept", "--override", "medium.od=1"],
    ],
    ids=" ".join,
)
def test_bad_input_is_a_config_error_before_compute(args, tmp_path, capsys, no_solver):
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert list(tmp_path.iterdir()) == []


def test_fig4_accepts_a_fig3_key(tmp_path):
    assert main(["fig4", "--out", str(tmp_path),
                 "--override", "scenario.i_peak=0.6"]) == 0


def test_workers_is_a_sweep_option_only(tmp_path):
    with pytest.raises(SystemExit):
        main(["fig4", "--out", str(tmp_path), "--workers", "2"])


def test_physics_violation_exits_with_its_own_code(tmp_path, capsys, monkeypatch):
    def violating(*args, **kwargs):
        raise PhysicsViolation("held norm exceeds input")

    monkeypatch.setattr(cli, "evolve", violating)
    assert main(["run", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["physics violation: held norm exceeds input"]
