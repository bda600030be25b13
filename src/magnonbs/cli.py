"""Scenario runner: figure tables, parameter sweeps, acceptance gate.

Commands: fig2, fig3, fig4, run, sweep, accept.  Every emitted file is
UTF-8 CSV whose '#'-prefixed header repeats the fully resolved
configuration (after unit conversion), so a table alone is enough to
rerun the scenario that produced it.

Config keys: `KEYS` declares every key once, by section, with its parser
and its typed default; a key whose default is None (`scenario.rabi_s_grid`,
`sweep.values`) is optional.  Defaults, then the INI file, then the
`--override` entries apply in that order, and every entry meets its key's
parser.  A list that would leave a command nothing to compute (fig2 depths
and drives, fig3 triples, control segments, sweep values) must not be
empty; `grid.snapshots` may be.

Unit policy: the solver works in normalized units (rates in gamma31,
times in 1/gamma31, lengths in the cell length).  Config keys may carry a
unit suffix: `*_mhz` values are linear frequencies f = x/2pi in MHz (the
convention detunings are usually quoted in) and `*_ns` values are times
in nanoseconds.  With gamma31 = 2pi x 3 MHz both convert by a fixed
factor, applied exactly once while the config is parsed; nothing past the
parser ever sees a suffixed key.

Exit codes: 0 success, 1 a failed acceptance criterion, 2 a config error
(reported before any compute), 3 a physics violation during a run.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    ControlSegment,
    ControlTimeline,
    MediumParams,
    PhysicsViolation,
    PulseEnvelope,
    make_grid,
)
from .mbloch import SimulationConfig, evolve, evolve_batch
from .splitter import phi_rt_analytic, tau_from_fwhm
from .stats import CLASSICAL, g2_formula
from . import scenarios

# gamma31 = 2pi x 3 MHz anchors the normalized unit system.
GAMMA31_MHZ = 3.0
NS_TO_NORM = 2.0 * math.pi * GAMMA31_MHZ * 1e6 * 1e-9

_FLOAT_FMT = "%.10g"
# Rows `write_csv` formats and writes at once: about 400 kB of cells.
_CSV_CHUNK = 1024
# The most rows a table whose length a config key sets may have.  Its
# columns take up to about 72 B per row (fig3's two tables at the bound,
# 7.2 MB traced; fig4's surface 38 B), and `write_csv` holds one chunk of
# formatted rows besides.
_MAX_ROWS = 100_000

Config = dict[str, dict[str, object]]


def _fmt(value, number=lambda x: _FLOAT_FMT % x) -> str:
    """One value as written to a CSV cell or a header line, each float
    through `number`.

    Parsed list values print in the config's own syntax (comma-separated,
    tuple items colon-separated), so a header line reads as config text.
    """
    if isinstance(value, ControlTimeline):
        value = tuple(
            (s.label, s.t_start, s.t_end, s.amplitude) for s in value.segments
        )
    if isinstance(value, tuple):
        return ", ".join(
            ":".join(_fmt(x, number) for x in v) if isinstance(v, tuple)
            else _fmt(v, number)
            for v in value
        )
    if isinstance(value, (float, np.floating)):
        return number(float(value))
    return str(value)


def _shortest(x: float) -> str:
    """The shortest text that reads back as x, with no trailing ".0"."""
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text


# ---------------------------------------------------------------- config


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text!r}")
    return value


def _int(text: str) -> int:
    value = _number(text)
    if value != int(value):
        raise ConfigError(f"not an integer: {text!r}")
    return int(value)


def _count(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise ConfigError(f"must be at least 1, got {value}")
    return value


def _rows(text: str) -> int:
    """A count of table rows, at most _MAX_ROWS."""
    value = _count(text)
    if value > _MAX_ROWS:
        raise ConfigError(f"a table may have at most {_MAX_ROWS} rows, got {value}")
    return value


def _side(text: str) -> int:
    """The points per axis of a square grid tabulated one row per point."""
    value = _count(text)
    if value * value > _MAX_ROWS:
        raise ConfigError(f"a table may have at most {_MAX_ROWS} rows, got {value}^2")
    return value


def _items(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_number(s) for s in _items(text))


def _floats(text: str) -> tuple[float, ...]:
    # An empty list would leave its command nothing to compute, and each
    # value takes at least a table row.
    values = _float_list(text)
    if not values:
        raise ConfigError("needs at least one value")
    if len(values) > _MAX_ROWS:
        raise ConfigError(f"a table may have at most {_MAX_ROWS} rows, got {len(values)}")
    return values


def _parse_triples(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for chunk in _items(text):
        od_s, sep, delta_s = chunk.partition(":")
        if not sep:
            raise ConfigError(f"triple must look like od:delta, got {chunk!r}")
        out.append((_number(od_s), _number(delta_s)))
    if not out:
        raise ConfigError("needs at least one od:delta triple")
    return tuple(out)


def _parse_segments(text: str) -> ControlTimeline:
    segments = []
    for chunk in _items(text):
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"segment must look like label:t0:t1:rabi, got {chunk!r}"
            )
        label, t0, t1, rabi = parts
        segments.append(
            ControlSegment(_number(t0), _number(t1), _number(rabi), label.strip())
        )
    if not segments:
        raise ConfigError("needs at least one segment")
    return ControlTimeline(tuple(segments))


def _spacing(text: str) -> str:
    if text not in ("linear", "log", "random"):
        raise ConfigError(f"unknown sweep spacing: {text!r}")
    return text


# Every known key, by section and unsuffixed name: its parser and its
# default, already typed and in normalized units.  A key whose default is
# None is optional: absent from the config unless given.
KEYS: dict[str, dict[str, tuple]] = {
    "scenario": {
        "ods": (_floats, tuple(params.od for params in scenarios.FIG2_CURVES)),
        "i_peak": (_number, 0.75),
        "fig4_i_peak": (_number, scenarios.FIG4_I_PEAK),
        "phase_rabi": (_number, scenarios.PHASE_CAL_RABI),
        "phase_fwhm": (_number, scenarios.PHASE_FWHM),
        "triples": (_parse_triples, scenarios.PHASE_POINTS),
        "delay_span": (_number, 4.0),
        "delay_steps": (_rows, 81),
        "phase_steps": (_rows, 97),
        "fig4_steps": (_side, scenarios.FIG4_STEPS),
        "fig4_span": (_number, scenarios.FIG4_SPAN),
        "rabi_s_grid": (_floats, None),
    },
    "medium": {
        "od": (_number, 30.0),
        "delta": (_number, 0.0),
        "gamma12": (_number, 0.0),
    },
    "pulse": {
        "fwhm": (_number, scenarios.PULSE.fwhm),
        "t_center": (_number, scenarios.PULSE.t_center),
        "amplitude_norm": (_number, 1.0),
    },
    "control": {
        "segments": (
            _parse_segments,
            ControlTimeline((ControlSegment(0.0, 10.0, 13.0, "beamsplit"),)),
        ),
    },
    "grid": {
        "n_z": (_int, 160),
        "t_end": (_number, 10.0),
        "snapshots": (_float_list, ()),
    },
    "sweep": {
        "parameter": (str, "control.rabi"),
        "start": (_number, 2.0),
        "stop": (_number, 12.0),
        "num": (_rows, 6),
        "spacing": (_spacing, "linear"),
        "values": (_floats, None),
    },
}

# Unit suffixes of float keys and their conversion to normalized units.
_UNITS = {
    "_mhz": lambda x: x / GAMMA31_MHZ,
    "_ns": lambda x: x * NS_TO_NORM,
}


def _parse_item(section: str, key: str, raw: str) -> tuple[str, object]:
    """(unsuffixed key, typed value) of one config entry."""
    name, convert = key, None
    for suffix, unit in _UNITS.items():
        if key.endswith(suffix):
            name, convert = key[: -len(suffix)], unit
    if name not in KEYS.get(section, {}):
        raise ConfigError(f"unknown config key: {section}.{key}")
    parse = KEYS[section][name][0]
    if convert is not None and parse is not _number:
        raise ConfigError(f"{section}.{key}: unit suffix on a non-float key")
    try:
        value = parse(raw.strip())
    except ConfigError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None
    return name, value if convert is None else convert(value)


def load_config(path: str | None, overrides: list[str]) -> Config:
    """Read, override, type-check and unit-normalize the configuration.

    Returns {section: {key: typed value}} with every `_mhz` / `_ns`
    suffix resolved to normalized units.  Override syntax is
    `section.key=value`; overrides may use suffixed keys too.  Entries
    apply in order (defaults, file, overrides), the last one setting a key
    winning whatever its suffix.  A key missing from KEYS or a value that
    does not parse as its type raises ConfigError.
    """
    entries = []
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            found = parser.read(path, encoding="utf-8")
            entries += [(s, k, v) for s in parser.sections() for k, v in parser.items(s)]
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}") from None
        if not found:
            raise ConfigError(f"config file not found: {path}")
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        section, dot, name = key.strip().partition(".")
        if not dot:
            raise ConfigError(f"override key must be section.key: {key!r}")
        entries.append((section, name.strip().lower(), value))

    config: Config = {
        section: {key: default for key, (_, default) in keys.items() if default is not None}
        for section, keys in KEYS.items()
    }
    for section, key, raw in entries:
        name, value = _parse_item(section, key, raw)
        config[section][name] = value
    return config


def header_lines(command: str, config: Config, seed: int) -> list[str]:
    """The header of a command's tables: the command, the units, the seed
    and every config entry, its floats as the shortest text that reads
    back as them, so that the entries rerun the table exactly."""
    lines = [
        f"magnonbs {command}",
        "units: rates in gamma31 (= 2pi x 3 MHz), times in 1/gamma31, "
        "z in cell lengths",
        f"seed = {seed}",
    ]
    for section in sorted(config):
        for key in sorted(config[section]):
            lines.append(f"{section}.{key} = {_fmt(config[section][key], _shortest)}")
    return lines


def _cells(values) -> list[str]:
    """One column's cells: a float array through `_FLOAT_FMT` at once, else `_fmt`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return [_FLOAT_FMT % v for v in values.tolist()]
    return [_fmt(v) for v in values]


def write_csv(path: Path, header: list[str], columns: list[tuple[str, object]]) -> None:
    """One table from its (name, values) columns, all of one length.

    A list of pairs, not a dict, so that two columns may share a name.
    Every column's length is checked before the file is opened, so a table
    with a column of another length raises ValueError and leaves no file.
    The cells are formatted and written _CSV_CHUNK rows at a time.
    """
    names, values = zip(*columns)
    n_rows = len(values[0])
    if any(len(v) != n_rows for v in values):
        raise ValueError(f"columns of unequal lengths: {[len(v) for v in values]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {line}\n" for line in header)
        fh.write(",".join(names) + "\n")
        for k in range(0, n_rows, _CSV_CHUNK):
            cells = [_cells(v[k : k + _CSV_CHUNK]) for v in values]
            fh.writelines(f"{','.join(row)}\n" for row in zip(*cells))


# ------------------------------------------------------- figure scenarios


def cmd_fig2(config: Config, out_dir: Path, seed: int) -> int:
    sc = config["scenario"]
    # Every curve's params are built, and so validated, and held to the step
    # bound on its grids before the first solver call.
    plans = []
    for od in sc["ods"]:
        params = scenarios.fig2_params(od)
        if "rabi_s_grid" in sc:
            params = replace(params, rabi_s_grid=sc["rabi_s_grid"])
        params.require_step_bound()
        plans.append((od, params))
    for od, params in plans:
        curve = scenarios.fig2_curve(params)
        # What the curve ran, which no `grid` or `control` entry above sets.
        header = header_lines("fig2", config, seed)
        header.append(f"od = {_fmt(od)}")
        header.append(f"n_z = {curve.fine.n_z}, {curve.coarse.n_z} (values extrapolated "
                      f"from both, profiles on {curve.fine.n_z})")
        header.append(f"rabi_bs = {_fmt(params.rabi_bs)}")
        header.append(f"ref_rabi_s = {_fmt(params.ref_rabi_s)}")
        header.append(f"transmission = {_fmt(curve.transmission)}")
        header.append(f"release = {_fmt(curve.release)}")
        tag = f"od{od:g}"

        profiles = [(f"s12_abs_rabi_{r:g}", s)
                    for r, s in zip(curve.rabi_s, curve.fine.spin_abs)]
        write_csv(out_dir / f"fig2_{tag}_profiles.csv", header,
                  [("z", make_grid(curve.fine.n_z))] + profiles)
        rabi_s = ("rabi_s", curve.rabi_s)
        write_csv(out_dir / f"fig2_{tag}_overlap.csv", header, [
            rabi_s,
            ("storage_efficiency", curve.efficiency),
            ("overlap_i", curve.mode_overlap),
            ("balance", curve.balance),
        ])
        write_csv(out_dir / f"fig2_{tag}_g2.csv", header,
                  [rabi_s, ("visibility", curve.visibility), ("g2", curve.g2)])
    return 0


def cmd_fig3(config: Config, out_dir: Path, seed: int) -> int:
    sc = config["scenario"]
    triples = sc["triples"]
    tau = tau_from_fwhm(sc["phase_fwhm"])
    i_peak = sc["i_peak"]
    phis = [phi_rt_analytic(sc["phase_rabi"], d, od, tau) for od, d in triples]

    header = header_lines("fig3", config, seed)
    for (od, d), phi in zip(triples, phis):
        header.append(f"phi_rt(od={od:g}, delta={d:g}) = {_fmt(phi)}")

    def classical(n: int) -> list[tuple[str, list[float]]]:
        return [("classical_lo", [CLASSICAL.g2_min] * n),
                ("classical_hi", [CLASSICAL.g2_max] * n)]

    span = sc["delay_span"]
    delays = np.linspace(-span, span, sc["delay_steps"])
    curves = [
        (f"g2_od{od:g}_delta{d:g}", g2_formula(scenarios.delay_overlap(delays, i_peak), phi))
        for (od, d), phi in zip(triples, phis)
    ]
    write_csv(out_dir / "fig3_delay.csv", header,
              [("delay", delays)] + curves + classical(delays.size))

    phases = np.linspace(0.0, 2.0 * math.pi, sc["phase_steps"])
    g2 = g2_formula(i_peak, phases)
    write_csv(out_dir / "fig3_phase.csv", header,
              [("phi_rt", phases), ("g2", g2)] + classical(phases.size))
    return 0


def cmd_fig4(config: Config, out_dir: Path, seed: int) -> int:
    sc = config["scenario"]
    n = sc["fig4_steps"]
    delays, grid = scenarios.fig4_grid(n, sc["fig4_span"], sc["fig4_i_peak"])

    header = header_lines("fig4", config, seed)
    header.append(f"classical_g3_max = {_fmt(CLASSICAL.g3_max)}")
    # Row-major over the grid: delay_1 is the row, delay_2 the column.
    write_csv(out_dir / "fig4_surface.csv", header, [
        ("delay_1", np.repeat(delays, n)),
        ("delay_2", np.tile(delays, n)),
        ("g3", grid.ravel()),
        ("classical_g3_max", [CLASSICAL.g3_max] * n * n),
    ])

    peak = float(grid[n // 2, n // 2]) if n % 2 else float(grid.max())
    write_csv(out_dir / "fig4_corners.csv", header, [
        ("source", ["oracle_ideal", "formula_peak", "classical_threshold"]),
        ("g3", [scenarios.ideal_cascade_g3(), peak, CLASSICAL.g3_max]),
    ])
    return 0


# ------------------------------------------------------------ run / sweep


def _build_run(
    config: Config,
) -> tuple[MediumParams, ControlTimeline, SimulationConfig, PulseEnvelope]:
    med, grid, pul = config["medium"], config["grid"], config["pulse"]
    medium = MediumParams(od=med["od"], delta=med["delta"], gamma12=med["gamma12"])
    sim = SimulationConfig(
        t_end=grid["t_end"], n_z=grid["n_z"], snapshot_times=grid["snapshots"],
    )
    pulse = PulseEnvelope(
        fwhm=pul["fwhm"],
        t_center=pul["t_center"],
        amplitude_norm=pul["amplitude_norm"],
    )
    return medium, config["control"]["segments"], sim, pulse


def _run_summary(traj) -> dict[str, float]:
    """The ledger of one run, and the loss quadrature with its gap to the
    ledger's loss, which shows a grid that does not resolve the medium."""
    fin = traj.final_state
    return {
        "input_norm": traj.input_norm,
        "emitted_norm": traj.emitted_norm,
        "photon_norm": fin.photon_norm,
        "magnon_norm": fin.magnon_norm,
        "loss": traj.loss_accum,
        "loss_quad": traj.loss_quad,
        "loss_gap": traj.loss_gap,
    }


class _PerStep:
    """A column of f(t) at a run's `Trajectory.times`, computed a slice of
    rows at a time as `write_csv` reads it, so that it holds no array as
    long as the run."""

    def __init__(self, traj, f=lambda t: t) -> None:
        self.n_steps, self.dt, self.f = traj.emitted.size, traj.dt, f

    def __len__(self) -> int:
        return self.n_steps

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.f((np.arange(*rows.indices(self.n_steps)) + 0.5) * self.dt)


def cmd_run(config: Config, out_dir: Path, seed: int) -> int:
    medium, timeline, sim, pulse = _build_run(config)
    traj = evolve(medium, timeline, sim, pulse=pulse)

    # The run's summary, as the sweep's rows print it.
    header = header_lines("run", config, seed)
    for key, value in _run_summary(traj).items():
        header.append(f"{key} = {_fmt(value)}")

    write_csv(out_dir / "run_emitted.csv", header, [
        ("t", _PerStep(traj)),
        ("e_out_re", traj.emitted.real),
        ("e_out_im", traj.emitted.imag),
        ("control_abs", _PerStep(traj, lambda t: np.abs(timeline.rabi(t)))),
    ])

    fin = traj.final_state
    write_csv(out_dir / "run_final.csv", header, [
        ("z", fin.z_grid),
        ("e_re", fin.e_field.real),
        ("e_im", fin.e_field.imag),
        ("s12_re", fin.sigma12.real),
        ("s12_im", fin.sigma12.imag),
        ("s13_re", fin.sigma13.real),
        ("s13_im", fin.sigma13.imag),
    ])

    snaps = traj.snapshots
    if snaps:
        write_csv(out_dir / "run_snapshots.csv", header, [
            ("t", [s.t_now for s in snaps for _ in s.z_grid]),
            ("z", np.concatenate([s.z_grid for s in snaps])),
            ("e_abs", np.concatenate([np.abs(s.e_field) for s in snaps])),
            ("s12_abs", np.concatenate([np.abs(s.sigma12) for s in snaps])),
        ])
    return 0


# The sections a sweep's runs read; a key elsewhere would change no run.
_RUN_SECTIONS = ("medium", "pulse", "grid")


def _apply_value(config: Config, parameter: str, value: float) -> Config:
    section, dot, key = parameter.partition(".")
    if not dot:
        raise ConfigError(f"sweep parameter must be section.key: {parameter!r}")
    patched = {s: dict(kv) for s, kv in config.items()}
    parse = KEYS[section].get(key, (None,))[0] if section in _RUN_SECTIONS else None
    if parameter == "control.rabi":
        # Convenience target: sets every control segment amplitude.
        timeline = config["control"]["segments"]
        patched["control"]["segments"] = ControlTimeline(
            tuple(replace(seg, amplitude=value) for seg in timeline.segments)
        )
    elif parse in (_number, _int, _count):
        # Through the key's own parser, so a swept value meets the same
        # checks as a configured one.
        patched[section][key] = parse(repr(float(value)))
    else:
        raise ConfigError(
            f"sweep parameter must be control.rabi or a number of "
            f"{', '.join(_RUN_SECTIONS)}: {parameter!r}"
        )
    return patched


def _sweep_values(config: Config, seed: int) -> np.ndarray:
    sw = config["sweep"]
    if "values" in sw:
        return np.array(sw["values"])
    start, stop, num = sw["start"], sw["stop"], sw["num"]
    if sw["spacing"] == "linear":
        return np.linspace(start, stop, num)
    if sw["spacing"] == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log spacing needs positive endpoints")
        return np.geomspace(start, stop, num)
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(start, stop, size=num))


def cmd_sweep(config: Config, out_dir: Path, seed: int) -> int:
    parameter = config["sweep"]["parameter"]
    values = [float(v) for v in _sweep_values(config, seed)]
    # Every point is built here, so its snapshot times are checked against
    # its grid, and the one solver call checks each before its first step.
    # No run takes snapshots or records its emission: no row reads either.
    runs = []
    for v in values:
        medium, timeline, sim, pulse = _build_run(_apply_value(config, parameter, v))
        sim = replace(sim, snapshot_times=(), record_emission=False)
        runs.append((medium, timeline, sim, pulse, None))
    summaries = [_run_summary(traj) for traj in evolve_batch(runs)]

    header = header_lines("sweep", config, seed)
    header.append(f"sweep parameter = {parameter}")
    write_csv(out_dir / "sweep.csv", header, [
        ("index", range(len(values))),
        (parameter.replace(".", "_"), values),
        *((key, [s[key] for s in summaries]) for key in summaries[0]),
    ])
    return 0


def cmd_accept(config: Config, out_dir: Path, seed: int) -> int:
    from .acceptance import format_report, run_all

    results = run_all()
    report = format_report(results)
    print(report)
    write_csv(out_dir / "acceptance.csv", header_lines("accept", config, seed), [
        ("criterion", [r.number for r in results]),
        ("status", ["pass" if r.passed else "fail" for r in results]),
        ("runtime_s", [r.runtime for r in results]),
        ("label", [f'"{r.label}"' for r in results]),
        ("details", [f'"{r.details}"' for r in results]),
    ])
    return 0 if all(r.passed for r in results) else 1


# -------------------------------------------------------------- entrypoint


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors (an unknown command or option, a
    missing value) are config errors; `--help` still prints and exits 0."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="magnonbs",
        description=(
            "EIT memory as a lossy photon/magnon beam splitter: figure\n"
            "tables, parameter sweeps, and the acceptance gate."
        ),
        epilog="commands:\n" + "\n".join(
            f"  {name:<8}{line}" for name, (_, line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", default=".", help="existing output directory")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="config override, repeatable, applied before unit conversion")
    return parser


_COMMANDS = {
    "fig2": (cmd_fig2, "storage-drive sweep: profiles, overlap, g2 tables"),
    "fig3": (cmd_fig3, "interference crossover: g2 vs delay and vs phase"),
    "fig4": (cmd_fig4, "three-particle surface and corner values"),
    "run": (cmd_run, "single propagation run from the config file"),
    "sweep": (cmd_sweep, "parameter sweep, its points stepped together"),
    "accept": (cmd_accept, "run the acceptance suite and report pass/fail"),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "accept" and (args.config is not None or args.override):
            raise ConfigError("accept runs fixed settings: no --config or --override")
        try:
            seed = int(args.seed)
        except ValueError:
            raise ConfigError(f"--seed must be an integer, got {args.seed!r}") from None
        if seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {seed}")
        config = load_config(args.config, args.override)
        out_dir = Path(args.out)
        if not out_dir.is_dir():
            raise ConfigError(f"output directory does not exist: {out_dir}")
        return _COMMANDS[args.command][0](config, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsViolation as exc:
        print(f"physics violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
