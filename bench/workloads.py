"""The benchmark's workloads: inputs from a seed, one pass, checks.

Each workload has `prepare(seed, pass_index, out_dir)`, which builds the
inputs of one pass and returns a state dict (untimed); `execute(state)`,
the timed pass through the program's public entry points, which returns
how many operations it attempted and how many raised; and `check(state)`,
which compares the outputs against `refs` or against properties that must
hold.

Each pass of a run draws its own inputs from (seed, pass index), of the
same sizes, so that no result can carry over from one pass to the next.
A workload whose inputs are fixed (`repeatable = False`) makes one pass.
`cuts_after` names the functions after whose calls the worker reads the
machine's speed inside a pass (bench/calibrate.py).

Every check is made twice: on the program's output, where it must pass,
and on a perturbed copy, where it must fail.  A check that cannot fail
shows nothing, so a perturbed copy that passes marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import traceback
from pathlib import Path

import numpy as np

import refs


class Checks:
    """Named pass/fail results, each with its perturbed counterpart."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def within(self, name: str, err: float, tol: float, perturbed_err: float) -> None:
        """err must be <= tol, and the perturbed input's error must not be."""
        self.items.append({
            "name": name,
            "ok": bool(err <= tol),
            "perturbed_rejected": bool(not perturbed_err <= tol),
            "err": float(err),
            "tol": tol,
            "perturbed_err": float(perturbed_err),
        })

    def holds(self, name: str, ok: bool, detail: str = "") -> None:
        """A property of the output with nothing to perturb (exit codes)."""
        self.items.append({"name": name, "ok": bool(ok),
                           "perturbed_rejected": True, "detail": detail})


def _main(args: list[str]) -> tuple[int | None, str]:
    """Run the `magnonbs` entry point, capturing what it prints.

    A traceback out of the entry point gives exit code None.
    """
    from magnonbs import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(args)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, buf.getvalue()


def _attempt(fn, *args):
    """fn(*args), or None after printing the traceback if it raises."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _table(path: Path) -> np.ndarray:
    return np.array(_read_csv(path)[1], dtype=float)


# ------------------------------------------------------------------ gate


@contextlib.contextmanager
def _capturing(module, name: str, sink: list):
    """Rebind module.name for the block so that its results go to sink."""
    fn = getattr(module, name)

    def captured(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, captured)
    try:
        yield
    finally:
        setattr(module, name, fn)


class Gate:
    """`magnonbs accept`, as users run it: the release gate."""

    name = "gate"
    # The gate's settings are fixed: a second pass would repeat the first.
    repeatable = False
    # Its one pass takes over a minute; the machine's speed is read after
    # each of its 36 solver runs, so that a change of speed within the pass
    # is scaled where it happens.
    cuts_after = ("mbloch.evolve",)

    def prepare(self, seed: int, pass_index: int, out_dir: Path) -> dict:
        return {"args": ["accept", "--out", str(out_dir), "--seed", str(seed)],
                "out": out_dir, "seed": seed, "extractions": [], "triangles": []}

    def execute(self, state: dict) -> tuple[int, int]:
        from magnonbs import acceptance, scenarios

        # The two mixing extractions and the triangle checks built on them,
        # in call order, for the passivity and two-port checks.
        with _capturing(scenarios, "extract_matrix", state["extractions"]), \
                _capturing(acceptance, "triangle_check", state["triangles"]):
            state["rc"], state["stdout"] = _main(state["args"])
        # Exit 1 is a failed criterion, which the checks report; anything
        # else means the command did not run to its end.
        return 1, int(state["rc"] not in (0, 1))

    def check(self, state: dict) -> Checks:
        c = Checks()
        if state["rc"] not in (0, 1):
            return c
        c.holds("gate.exit_code", state["rc"] == 0, f"exit {state['rc']}")
        _, rows = _read_csv(state["out"] / "acceptance.csv")
        passed = [r[1] for r in rows].count("pass")
        c.holds("gate.criteria", len(rows) == 8 and passed == 8
                and "8/8 criteria passed" in state["stdout"],
                f"{passed}/{len(rows)} criteria passed")

        ext, tri = state["extractions"], state["triangles"]
        c.holds("gate.mixing_runs", len(ext) == 2 and len(tri) == 2,
                f"{len(ext)} extractions, {len(tri)} triangle checks")
        if ext and len(ext) == len(tri):
            def gain(m):
                return np.linalg.svd(m, compute_uv=False)[0] - 1.0

            mats = [e.matrix.matrix for e in ext]
            # Perturbed: the same splitters scaled to a gain of 1e-9.
            c.within("gate.passive", max(gain(m) for m in mats), 1e-12,
                     min(gain(m * (1.0 + 1e-9) / (1.0 + gain(m))) for m in mats))
            gaps, perturbed = [], []
            for e, t in zip(ext, tri):
                m = e.matrix.matrix
                gaps.append(abs(t.g2_oracle - refs.two_port_g2(m, t.overlap)))
                perturbed.append(
                    abs(t.g2_oracle - refs.two_port_g2(m, t.overlap + 0.01)))
            c.within("gate.two_port_g2", max(gaps), 1e-9, min(perturbed))

        # The gate holds no constant-drive run, so the solver is checked
        # against H(omega) on a small one made here, after the timed pass.
        solver = Longrun("gate.solver", n_z=120, t_end=10.0, snapshots=(6.0,))
        out = state["out"] / "solver"
        out.mkdir()
        probe = solver.prepare(state["seed"], 0, out)
        solver.execute(probe)
        c.holds("gate.solver.exit_code", probe["rc"] == 0, f"exit {probe['rc']}")
        c.items += solver.check(probe).items
        return c


# ------------------------------------------------------ constant drive

# Solver error against H(omega) falls as C / n_z^2 (Strang splitting is
# second order; the error falls 4.00x per grid doubling).
# bench/convergence.py measures C over the seeded parameter box: the
# largest, 0.163, is at the corner od = 40, rabi = 10 (README).  The
# tolerance allows twice that.
EIT_ERR_COEF = 0.33
PULSE_FWHM = 1.5
# Late enough that the pulse tail (~1e-9 of the peak amplitude at t = 0.1)
# never sees the control's turn-on ramp, so the drive is constant for it.
PULSE_CENTER = 6.0


# Ranges of the medium and drive of a constant-drive run.
CONSTANT_DRIVE_BOX = {"od": (20.0, 40.0), "delta": (-2.0, 2.0), "rabi": (10.0, 16.0)}


def constant_drive_medium(seed: int, pass_index: int = 0) -> dict:
    """od, detuning and control Rabi frequency drawn from the seed."""
    rng = np.random.default_rng([seed, 1, pass_index])
    return {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in CONSTANT_DRIVE_BOX.items()}


class Longrun:
    """One `magnonbs run` under a constant control drive, held to H(omega).

    At its full size (400 cells to t = 26: 124,800 solver steps and as many
    CSV rows) it is a workload that can be run by hand; the gate runs a
    small one after its pass to check the solver.
    """

    repeatable = True
    cuts_after = ()

    def __init__(self, name: str, n_z: int, t_end: float,
                 snapshots: tuple[float, ...]) -> None:
        self.name = name
        self.n_z = n_z
        self.t_end = t_end
        self.snapshots = snapshots

    def prepare(self, seed: int, pass_index: int, out_dir: Path) -> dict:
        medium = constant_drive_medium(seed, pass_index)
        config = out_dir / "constant_drive.ini"
        config.write_text(
            "[medium]\n"
            f"od = {medium['od']!r}\n"
            f"delta = {medium['delta']!r}\n"
            "gamma12 = 0\n"
            "[pulse]\n"
            f"fwhm = {PULSE_FWHM!r}\n"
            f"t_center = {PULSE_CENTER!r}\n"
            "amplitude_norm = 1\n"
            "[control]\n"
            # The segment outlasts the run, so its turn-off ramp never starts.
            f"segments = beamsplit:0:1000:{medium['rabi']!r}\n"
            "[grid]\n"
            f"n_z = {self.n_z}\n"
            f"t_end = {self.t_end!r}\n"
            f"snapshots = {', '.join(map(repr, self.snapshots))}\n",
            encoding="utf-8",
        )
        return {"medium": medium, "out": out_dir,
                "args": ["run", "--config", str(config), "--out", str(out_dir),
                         "--seed", str(seed)]}

    def execute(self, state: dict) -> tuple[int, int]:
        state["rc"], _ = _main(state["args"])
        return 1, int(state["rc"] != 0)

    def check(self, state: dict) -> Checks:
        c = Checks()
        if state["rc"] != 0:
            return c
        out, med = state["out"], state["medium"]
        emitted = _table(out / "run_emitted.csv")
        final = _table(out / "run_final.csv")
        snaps = _table(out / "run_snapshots.csv")

        dz = 1.0 / self.n_z
        dt = dz / 12.0
        n_steps = math.ceil(self.t_end / dt - 1e-9)
        times = (np.arange(n_steps) + 0.5) * dt
        c.holds(f"{self.name}.shapes",
                emitted.shape == (n_steps, 4) and final.shape == (self.n_z, 7)
                and snaps.shape == (len(self.snapshots) * self.n_z, 4)
                and bool(np.allclose(emitted[:, 0], times, rtol=1e-9, atol=0.0)),
                f"emitted {emitted.shape}, final {final.shape}, "
                f"snapshots {snaps.shape}")

        e_out = emitted[:, 1] + 1j * emitted[:, 2]
        a_in = refs.gaussian_amplitude(times, PULSE_FWHM, PULSE_CENTER)
        ref = refs.eit_output(a_in, dt, **med)
        bent = refs.eit_output(a_in, dt, **{**med, "od": med["od"] * 1.001})
        tol = EIT_ERR_COEF / self.n_z**2
        c.within(f"{self.name}.eit_transfer", refs.relative_l2(e_out, ref), tol,
                 refs.relative_l2(e_out, bent))

        injected = dt * float(np.sum(np.abs(a_in) ** 2))
        held = dz * float(np.sum(final[:, 1:] ** 2))
        leaving = dt * float(np.sum(np.abs(e_out) ** 2))
        excess = (held + leaving - injected) / injected
        # Perturbed: the emitted field read in the cell's spatial
        # normalization (c_eff = 12 times the temporal one).
        c.within(f"{self.name}.norm_budget", excess, 1e-9,
                 (held + 12.0 * leaving - injected) / injected)
        return c


# ---------------------------------------------------------------- oracle

ORACLE_CASES = 5       # networks per (particle number, kind)
ORACLE_CASCADES = 5
ORACLE_PHASE_POINTS = 4000
# Control-pulse FWHM of the gate's phase operating points (criterion 4).
PHASE_FWHM = 1.8847
# Ranges of the `[scenario]` settings that fig3 and fig4 run at.
FIGURE_SETTINGS = {"i_peak": (0.5, 1.0), "phase_rabi": (25.0, 40.0),
                   "delay_span": (3.0, 5.0), "fig4_i_peak": (0.8, 1.0),
                   "fig4_span": (2.5, 3.5)}


_ROTATION = np.array([[math.cos(1e-3), -math.sin(1e-3)],
                      [math.sin(1e-3), math.cos(1e-3)]])


def _random_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_passive(rng, n: int) -> np.ndarray:
    s = rng.uniform(0.3, 1.0, size=n)
    return _random_unitary(rng, n) @ np.diag(s) @ _random_unitary(rng, n)


def _random_gram(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    g = v @ v.T
    np.fill_diagonal(g, 1.0)
    return g


def _balanced_unitary(rng) -> np.ndarray:
    a, b = np.exp(2j * np.pi * rng.uniform(size=2)), np.exp(2j * np.pi * rng.uniform(size=2))
    return np.diag(a) @ (np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)) @ np.diag(b)


def _per_routing_baseline(t: np.ndarray) -> float:
    """Distinguishable all-ports coincidence per nonzero routing."""
    prods = [math.prod(abs(t[k, j]) for k, j in enumerate(perm))
             for perm in itertools.permutations(range(t.shape[0]))]
    k = sum(1 for p in prods if p > 1e-12 * max(prods))
    return sum(prods) ** 2 / k


class Oracle:
    """Few-particle statistics, the analytic phase and the fig3/fig4 tables.

    No solver call: a change to `mbloch` should leave this workload unmoved.
    """

    name = "oracle"
    repeatable = True
    cuts_after = ()

    def prepare(self, seed: int, pass_index: int, out_dir: Path) -> dict:
        rng = np.random.default_rng([seed, 2, pass_index])
        cases = []  # (kind, transfer, gram)
        for n in (2, 3):
            ones = np.ones((n, n))
            eye = np.eye(n)
            for _ in range(ORACLE_CASES):
                cases.append(("identical", _random_unitary(rng, n), ones))
                cases.append(("distinguishable", _random_passive(rng, n), eye))
                cases.append(("partial", _random_passive(rng, n), _random_gram(rng, n)))
        for _ in range(ORACLE_CASES):
            cases.append(("hom", _balanced_unitary(rng), np.ones((2, 2))))
        stages = []
        for _ in range(ORACLE_CASCADES):
            pair = [_random_passive(rng, 2) for _ in range(2)]
            stages.append((pair, rng.uniform(0.0, 1.0, size=2)))
        phase = (float(rng.uniform(20.0, 36.0)), float(rng.uniform(30.0, 100.0)))
        # fig3 and fig4 at drawn settings; their table sizes stay fixed.
        figure_settings = [f"scenario.{key}={rng.uniform(lo, hi)!r}" for key, (lo, hi)
                           in FIGURE_SETTINGS.items()]
        return {"cases": cases, "stages": stages, "phase": phase, "out": out_dir,
                "seed": seed, "figure_settings": figure_settings}

    def execute(self, state: dict) -> tuple[int, int]:
        from magnonbs import (FockInput, ModeNetwork, SplitterMatrix, cascade_three,
                              g3_from_distribution, output_distribution,
                              phi_rt_analytic, tau_from_fwhm, three_photon_input)

        def distribution(transfer, gram):
            inp = FockInput((1,) * gram.shape[0], gram)
            return output_distribution(ModeNetwork(transfer), inp)

        def cascade(m1, m2, i12, i23):
            stages = [SplitterMatrix(t1=m[0, 0], r2=m[0, 1], r1=m[1, 0], t2=m[1, 1])
                      for m in (m1, m2)]
            net = cascade_three(*stages)
            dist = output_distribution(net, three_photon_input(i12, i23))
            return net.transfer, dist, g3_from_distribution(dist, net.transfer)

        def sweep(rabi, od):
            tau = tau_from_fwhm(PHASE_FWHM)
            return np.array([phi_rt_analytic(rabi, d, od, tau) for d in
                             np.linspace(0.0, 20.0, ORACLE_PHASE_POINTS)])

        half = np.full((2, 2), 0.5)
        state["dists"] = [_attempt(distribution, t, g) for _, t, g in state["cases"]]
        state["cascades"] = [_attempt(cascade, m1, m2, i12, i23)
                             for (m1, m2), (i12, i23) in state["stages"]]
        state["ideal"] = _attempt(cascade, half, half, 1.0, 1.0)
        state["phis"] = _attempt(sweep, *state["phase"])
        results = state["dists"] + state["cascades"] + [state["ideal"], state["phis"]]
        failed = sum(r is None for r in results)
        for command in ("fig3", "fig4"):
            overrides = [a for kv in state["figure_settings"] for a in ("--override", kv)]
            state[command], _ = _main([command, "--out", str(state["out"]),
                                       "--seed", str(state["seed"]), *overrides])
            failed += int(state[command] != 0)
        return len(results) + 2, failed

    def check(self, state: dict) -> Checks:
        c = Checks()
        pairs = [(case, d) for case, d in zip(state["cases"], state["dists"])
                 if d is not None]
        dists = [d for _, d in pairs] + [cd[1] for cd in state["cascades"] if cd]

        def raised(d):
            """d with one probability raised by 1e-9."""
            first = next(iter(d))
            return {**d, first: d[first] + 1e-9}

        c.within("oracle.sums_to_one", max(abs(sum(d.values()) - 1.0) for d in dists),
                 1e-12, min(abs(sum(raised(d).values()) - 1.0) for d in dists))

        ryser, ryser_bent = [], []
        routing, routing_bent = [], []
        two_port, two_port_bent = [], []
        dips, dips_bent = [], []
        for (kind, t, gram), d in pairs:
            n = gram.shape[0]
            ports = tuple(range(n))
            if kind == "identical":
                ryser.append(refs.distribution_gap(d, refs.identical_distribution(t, ports)))
                # Phases on rows or columns are a gauge; mixing two inputs is not.
                bent = t.copy()
                bent[:, :2] = t[:, :2] @ _ROTATION
                ryser_bent.append(
                    refs.distribution_gap(d, refs.identical_distribution(bent, ports)))
            elif kind == "distinguishable":
                routing.append(refs.distribution_gap(d, refs.distinguishable_routing(t, ports)))
                routing_bent.append(refs.distribution_gap(
                    d, refs.distinguishable_routing(0.999 * t, ports)))
            if n == 2 and kind != "hom":
                i = gram[0, 1] ** 2
                two_port.append(abs(d.get((1, 1), 0.0) - refs.two_port_coincidence(t, i)))
                two_port_bent.append(abs(d.get((1, 1), 0.0)
                                         - refs.two_port_coincidence(t, i + 1e-3)))
            if kind == "hom":
                dips.append(d.get((1, 1), 0.0))
                dips_bent.append(refs.two_port_coincidence(t, 0.999))
        c.within("oracle.identical_vs_ryser", max(ryser), 1e-12, min(ryser_bent))
        c.within("oracle.distinguishable_vs_routing", max(routing), 1e-12,
                 min(routing_bent))
        c.within("oracle.two_port_coincidence", max(two_port), 1e-12,
                 min(two_port_bent))
        c.within("oracle.hom_dip", max(dips), 1e-12, min(dips_bent))

        # Operations that raised are counted in `failed` and not checked.
        if state["ideal"] is not None:
            t, dist, g3 = state["ideal"]
            per2 = abs(refs.ryser_permanent(t)) ** 2
            own = per2 / _per_routing_baseline(t)
            c.within("oracle.ideal_cascade_g3", max(abs(g3 - 4.0), abs(own - 4.0)),
                     1e-9, abs(g3 * 1.000001 - 4.0))
            p111 = dist.get((1, 1, 1), 0.0)
            c.within("oracle.ideal_cascade_p111", abs(p111 - per2), 1e-12,
                     abs(p111 * 1.001 - per2))

        phis = state["phis"]
        if phis is not None:
            c.holds("oracle.phase_sweep", bool(
                np.all(np.isfinite(phis)) and np.all(phis >= 0.0)
                and np.all(phis < 2.0 * math.pi)), "phases in [0, 2 pi)")

        out = state["out"]
        if state["fig3"] == 0:
            _, delay = _read_csv(out / "fig3_delay.csv")
            _, phase = _read_csv(out / "fig3_phase.csv")
            c.holds("oracle.fig3_tables", len(delay) == 81 and len(phase) == 97,
                    f"{len(delay)} delay rows, {len(phase)} phase rows")
        if state["fig4"] == 0:
            _, corners = _read_csv(out / "fig4_corners.csv")
            oracle_g3 = float(dict(corners)["oracle_ideal"])
            c.within("oracle.fig4_ideal_g3", abs(oracle_g3 - 4.0), 1e-9,
                     abs(oracle_g3 + 1e-6 - 4.0))
        return c


WORKLOADS = {w.name: w for w in (
    Gate(),
    Oracle(),
    Longrun("longrun", n_z=400, t_end=26.0,
            snapshots=(5.0, 10.0, 15.0, 20.0, 25.0)),
)}
