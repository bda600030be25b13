"""Scenario runner: figure tables, parameter sweeps, acceptance gate.

Subcommands: fig2, fig3, fig4, run, sweep, accept.  Every emitted file is
UTF-8 CSV whose '#'-prefixed header repeats the fully resolved
configuration (after unit conversion), so a table alone is enough to
rerun the scenario that produced it.

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
from concurrent.futures import ProcessPoolExecutor
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
from .mbloch import SimulationConfig, evolve
from .splitter import phi_rt_analytic, tau_from_fwhm
from .stats import classical_bounds
from . import scenarios

# gamma31 = 2pi x 3 MHz anchors the normalized unit system.
GAMMA31_MHZ = 3.0
NS_TO_NORM = 2.0 * math.pi * GAMMA31_MHZ * 1e6 * 1e-9

_FLOAT_FMT = "%.10g"

Config = dict[str, dict[str, object]]


def _fmt(value) -> str:
    """One value as written to a CSV cell or a header line.

    Parsed list values print in the config's own syntax (comma-separated,
    tuple items colon-separated), so a header line reads as config text.
    """
    if isinstance(value, ControlTimeline):
        value = tuple(
            (s.label, s.t_start, s.t_end, s.amplitude) for s in value.segments
        )
    if isinstance(value, tuple):
        return ", ".join(
            ":".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)
            for v in value
        )
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % float(value)
    return str(value)


# ---------------------------------------------------------------- config


DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "ods": "30, 150",
        "i_peak": "0.75",
        "fig4_i_peak": "1.0",
        "phase_rabi": "34.25",
        "phase_fwhm_ns": "100",
        "triples": "30:0, 66:10, 100:20",
        "delay_span": "4.0",
        "delay_steps": "81",
        "phase_steps": "97",
        "fig4_steps": "5",
        "fig4_span": "3.0",
    },
    "medium": {
        "od": "30",
        "delta": "0",
        "gamma12": "0",
    },
    "pulse": {
        "fwhm": "1.5",
        "t_center": "3.2",
        "amplitude_norm": "1",
    },
    "control": {
        "segments": "beamsplit:0:10:13",
    },
    "grid": {
        "n_z": "160",
        "t_end": "10",
        "snapshots": "",
    },
    "sweep": {
        "parameter": "control.rabi",
        "start": "2",
        "stop": "12",
        "num": "6",
        "spacing": "linear",
    },
}


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


def _items(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_number(s) for s in _items(text))


def _parse_triples(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for chunk in _items(text):
        od_s, sep, delta_s = chunk.partition(":")
        if not sep:
            raise ConfigError(f"triple must look like od:delta, got {chunk!r}")
        out.append((_number(od_s), _number(delta_s)))
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
        raise ConfigError("control.segments is empty")
    return ControlTimeline(tuple(segments))


def _spacing(text: str) -> str:
    if text not in ("linear", "log", "random"):
        raise ConfigError(f"unknown sweep spacing: {text!r}")
    return text


# The parser of every known key, by section and unsuffixed name.  Keys
# missing from DEFAULTS are optional: absent from the config unless given.
KEY_TYPES = {
    "scenario": {
        "ods": _floats,
        "i_peak": _number,
        "fig4_i_peak": _number,
        "phase_rabi": _number,
        "phase_fwhm": _number,
        "triples": _parse_triples,
        "delay_span": _number,
        "delay_steps": _count,
        "phase_steps": _count,
        "fig4_steps": _count,
        "fig4_span": _number,
        "rabi_s_grid": _floats,
    },
    "medium": {"od": _number, "delta": _number, "gamma12": _number},
    "pulse": {"fwhm": _number, "t_center": _number, "amplitude_norm": _number},
    "control": {"segments": _parse_segments},
    "grid": {"n_z": _int, "t_end": _number, "snapshots": _floats},
    "sweep": {
        "parameter": str,
        "start": _number,
        "stop": _number,
        "num": _count,
        "spacing": _spacing,
        "values": _floats,
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
    parse = KEY_TYPES.get(section, {}).get(name)
    if parse is None:
        raise ConfigError(f"unknown config key: {section}.{key}")
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
    winning whatever its suffix.  A key missing from KEY_TYPES or a value
    that does not parse as its type raises ConfigError.
    """
    entries = [(s, k, v) for s, kv in DEFAULTS.items() for k, v in kv.items()]
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            found = parser.read(path)
            entries += [(s, k, v) for s in parser.sections() for k, v in parser.items(s)]
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
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

    config: Config = {section: {} for section in DEFAULTS}
    for section, key, raw in entries:
        name, value = _parse_item(section, key, raw)
        config[section][name] = value
    return config


def header_lines(command: str, config: Config, seed: int) -> list[str]:
    lines = [
        f"magnonbs {command}",
        "units: rates in gamma31 (= 2pi x 3 MHz), times in 1/gamma31, "
        "z in cell lengths",
        f"seed = {seed}",
    ]
    for section in sorted(config):
        for key in sorted(config[section]):
            lines.append(f"{section}.{key} = {_fmt(config[section][key])}")
    return lines


def write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ------------------------------------------------------- figure scenarios


def _fig2_params(od: float) -> scenarios.Fig2Params:
    if od == 30.0:
        return scenarios.FIG2_OD30
    if od == 150.0:
        return scenarios.FIG2_OD150
    # Uncalibrated depth: reuse the low-depth drive schedule so shallow
    # and empty cells stay runnable.
    return replace(scenarios.FIG2_OD30, od=od)


def cmd_fig2(config: Config, out_dir: Path, seed: int) -> int:
    sc = config["scenario"]
    for od in sc["ods"]:
        params = _fig2_params(od)
        if "rabi_s_grid" in sc:
            params = replace(params, rabi_s_grid=sc["rabi_s_grid"])
        curve = scenarios.fig2_curve(params)
        header = header_lines("fig2", config, seed)
        header.append(f"od = {_fmt(od)}")
        header.append(f"transmission = {_fmt(curve.transmission)}")
        header.append(f"release = {_fmt(curve.release)}")
        header.append(f"max_bookkeeping_residual = {_fmt(curve.max_residual)}")
        tag = f"od{od:g}"

        z = make_grid(1.0, params.n_z)
        prof_cols = ["z"] + [f"s12_abs_rabi_{r.rabi_s:g}" for r in curve.rows]
        prof_rows = [
            [z[i]] + [r.spin_abs[i] for r in curve.rows]
            for i in range(params.n_z)
        ]
        write_csv(out_dir / f"fig2_{tag}_profiles.csv", header, prof_cols, prof_rows)

        over_cols = ["rabi_s", "storage_efficiency", "overlap_i", "balance"]
        over_rows = [
            [r.rabi_s, r.efficiency, r.mode_overlap, r.balance]
            for r in curve.rows
        ]
        write_csv(out_dir / f"fig2_{tag}_overlap.csv", header, over_cols, over_rows)

        g2_cols = ["rabi_s", "visibility", "g2"]
        g2_rows = [[r.rabi_s, r.visibility, r.g2] for r in curve.rows]
        write_csv(out_dir / f"fig2_{tag}_g2.csv", header, g2_cols, g2_rows)
    return 0


def cmd_fig3(config: Config, out_dir: Path, seed: int) -> int:
    sc = config["scenario"]
    triples = sc["triples"]
    tau = tau_from_fwhm(sc["phase_fwhm"])
    i_peak = sc["i_peak"]
    phis = [phi_rt_analytic(sc["phase_rabi"], d, od, tau) for od, d in triples]

    bounds = classical_bounds()
    header = header_lines("fig3", config, seed)
    for (od, d), phi in zip(triples, phis):
        header.append(f"phi_rt(od={od:g}, delta={d:g}) = {_fmt(phi)}")

    span = sc["delay_span"]
    delays = np.linspace(-span, span, sc["delay_steps"])
    curves = [
        scenarios.fig3_delay_curve(phi, delays=delays, i_peak=i_peak)[1]
        for phi in phis
    ]
    delay_cols = ["delay"]
    delay_cols += [f"g2_od{od:g}_delta{d:g}" for od, d in triples]
    delay_cols += ["classical_lo", "classical_hi"]
    delay_rows = [
        [delays[i]]
        + [c[i] for c in curves]
        + [bounds.g2_min, bounds.g2_max]
        for i in range(delays.size)
    ]
    write_csv(out_dir / "fig3_delay.csv", header, delay_cols, delay_rows)

    phases = np.linspace(0.0, 2.0 * math.pi, sc["phase_steps"])
    _, g2 = scenarios.fig3_phase_curve(phases=phases, i_value=i_peak)
    phase_rows = [
        [phases[i], g2[i], bounds.g2_min, bounds.g2_max]
        for i in range(phases.size)
    ]
    write_csv(
        out_dir / "fig3_phase.csv",
        header,
        ["phi_rt", "g2", "classical_lo", "classical_hi"],
        phase_rows,
    )
    return 0


def cmd_fig4(config: Config, out_dir: Path, seed: int) -> int:
    sc = config["scenario"]
    n = sc["fig4_steps"]
    d1, d2, grid = scenarios.fig4_grid(
        n=n, delay_span=sc["fig4_span"], i_peak=sc["fig4_i_peak"]
    )
    bounds = classical_bounds()

    header = header_lines("fig4", config, seed)
    header.append(f"classical_g3_max = {_fmt(bounds.g3_max)}")
    rows = [
        [d1[i], d2[j], grid[i, j], bounds.g3_max]
        for i in range(n)
        for j in range(n)
    ]
    write_csv(
        out_dir / "fig4_surface.csv",
        header,
        ["delay_1", "delay_2", "g3", "classical_g3_max"],
        rows,
    )

    peak = float(grid[n // 2, n // 2]) if n % 2 else float(grid.max())
    corner_rows = [
        ["oracle_ideal", scenarios.ideal_cascade_g3()],
        ["formula_peak", peak],
        ["classical_threshold", bounds.g3_max],
    ]
    write_csv(
        out_dir / "fig4_corners.csv", header, ["source", "g3"], corner_rows
    )
    return 0


# ------------------------------------------------------------ run / sweep


def _build_run(
    config: Config,
) -> tuple[MediumParams, ControlTimeline, SimulationConfig, PulseEnvelope]:
    med, grid, pul = config["medium"], config["grid"], config["pulse"]
    medium = MediumParams(od=med["od"], delta=med["delta"], gamma12=med["gamma12"])
    sim = SimulationConfig(
        t_end=grid["t_end"], n_z=grid["n_z"], snapshot_times=grid["snapshots"]
    )
    pulse = PulseEnvelope(
        fwhm=pul["fwhm"],
        t_center=pul["t_center"],
        amplitude_norm=pul["amplitude_norm"],
    )
    return medium, config["control"]["segments"], sim, pulse


def _run_summary(traj) -> dict[str, float]:
    fin = traj.final_state
    return {
        "input_norm": traj.input_norm,
        "emitted_norm": fin.emitted_norm,
        "photon_norm": fin.photon_norm,
        "magnon_norm": fin.magnon_norm,
        "loss": fin.loss_accum,
        "residual": fin.bookkeeping_residual(),
    }


def cmd_run(config: Config, out_dir: Path, seed: int) -> int:
    medium, timeline, sim, pulse = _build_run(config)
    traj = evolve(medium, timeline, sim, pulse=pulse)

    header = header_lines("run", config, seed)
    for key, value in _run_summary(traj).items():
        header.append(f"{key} = {_fmt(value)}")

    emitted_rows = [
        [traj.times[i], traj.emitted[i].real, traj.emitted[i].imag,
         abs(traj.control[i])]
        for i in range(traj.times.size)
    ]
    write_csv(
        out_dir / "run_emitted.csv",
        header,
        ["t", "e_out_re", "e_out_im", "control_abs"],
        emitted_rows,
    )

    fin = traj.final_state
    final_rows = [
        [fin.z_grid[i], fin.e_field[i].real, fin.e_field[i].imag,
         fin.sigma12[i].real, fin.sigma12[i].imag,
         fin.sigma13[i].real, fin.sigma13[i].imag]
        for i in range(fin.z_grid.size)
    ]
    write_csv(
        out_dir / "run_final.csv",
        header,
        ["z", "e_re", "e_im", "s12_re", "s12_im", "s13_re", "s13_im"],
        final_rows,
    )

    if traj.snapshots:
        snap_rows = []
        for snap in traj.snapshots:
            for i in range(snap.z_grid.size):
                snap_rows.append(
                    [snap.t_now, snap.z_grid[i],
                     abs(snap.e_field[i]), abs(snap.sigma12[i])]
                )
        write_csv(
            out_dir / "run_snapshots.csv",
            header,
            ["t", "z", "e_abs", "s12_abs"],
            snap_rows,
        )
    return 0


def _apply_value(config: Config, parameter: str, value: float) -> Config:
    section, dot, key = parameter.partition(".")
    if not dot:
        raise ConfigError(f"sweep parameter must be section.key: {parameter!r}")
    patched = {s: dict(kv) for s, kv in config.items()}
    parse = KEY_TYPES.get(section, {}).get(key)
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
        raise ConfigError(f"unknown sweep parameter: {parameter!r}")
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


def _sweep_job(run) -> list[float]:
    medium, timeline, sim, pulse = run
    # The summary's keys are in the order of the sweep table's columns.
    return list(_run_summary(evolve(medium, timeline, sim, pulse=pulse)).values())


def cmd_sweep(config: Config, out_dir: Path, seed: int, workers: int) -> int:
    if workers < 1:
        raise ConfigError("--workers must be at least 1")
    parameter = config["sweep"]["parameter"]
    values = [float(v) for v in _sweep_values(config, seed)]
    # Every point is built, and so validated, before the first solver call.
    runs = [_build_run(_apply_value(config, parameter, v)) for v in values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map yields in submission order, whatever order the runs finish.
            summaries = list(pool.map(_sweep_job, runs))
    else:
        summaries = [_sweep_job(run) for run in runs]

    header = header_lines("sweep", config, seed)
    header.append(f"sweep parameter = {parameter}")
    write_csv(
        out_dir / "sweep.csv",
        header,
        ["index", parameter.replace(".", "_"), "input_norm", "emitted_norm",
         "photon_norm", "magnon_norm", "loss", "residual"],
        [[float(i), v] + s for i, (v, s) in enumerate(zip(values, summaries))],
    )
    return 0


def cmd_accept(config: Config, out_dir: Path, seed: int) -> int:
    from .acceptance import format_report, run_all

    results = run_all()
    report = format_report(results)
    print(report)
    header = header_lines("accept", config, seed)
    rows = [
        [r.number, "pass" if r.passed else "fail", r.runtime,
         f'"{r.label}"', f'"{r.details}"']
        for r in results
    ]
    write_csv(
        out_dir / "acceptance.csv",
        header,
        ["criterion", "status", "runtime_s", "label", "details"],
        rows,
    )
    return 0 if all(r.passed for r in results) else 1


# -------------------------------------------------------------- entrypoint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnonbs",
        description=(
            "EIT memory as a lossy photon/magnon beam splitter: figure "
            "tables, parameter sweeps, and the acceptance gate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fig2", "storage-drive sweep: profiles, overlap, g2 tables"),
        ("fig3", "interference crossover: g2 vs delay and vs phase"),
        ("fig4", "three-particle surface and corner values"),
        ("run", "single propagation run from the config file"),
        ("sweep", "parameter sweep with parallel workers"),
        ("accept", "run the acceptance suite and report pass/fail"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=".", help="existing output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="config override, repeatable, applied before unit conversion",
        )
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1)
    return parser


_COMMANDS = {
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "accept": cmd_accept,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "accept" and (args.config is not None or args.override):
            raise ConfigError("accept runs fixed settings: no --config or --override")
        config = load_config(args.config, args.override)
        out_dir = Path(args.out)
        if not out_dir.is_dir():
            raise ConfigError(f"output directory does not exist: {out_dir}")
        options = {"workers": args.workers} if "workers" in args else {}
        return _COMMANDS[args.command](config, out_dir, args.seed, **options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsViolation as exc:
        print(f"physics violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
