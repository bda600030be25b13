"""Measure the solver's second-order convergence to the H(omega) reference.

    PYTHONPATH=src:bench python3 bench/convergence.py

Runs the constant-drive media of `workloads.Longrun` (the corners of the
parameter box and the media of seeds 0..9) at n_z = 40, 80, 160 and 320,
with its pulse and drive, and prints the relative L2 error of the emitted
field against `refs.eit_output`, the ratio per grid doubling (4 for a
second-order scheme) and C = error * n_z^2.  The largest C sets
`workloads.EIT_ERR_COEF`, the tolerance of the H(omega) check.
"""

from __future__ import annotations

import itertools

from magnonbs import (ControlSegment, ControlTimeline, MediumParams, PulseEnvelope,
                      SimulationConfig, evolve)

import refs
from workloads import (CONSTANT_DRIVE_BOX, PULSE_CENTER, PULSE_FWHM,
                       constant_drive_medium)

GRIDS = (40, 80, 160, 320)
SEEDS = 10
# Long enough for the slowest pulse in the box to have left the cell.
T_END = 12.0


def error(medium: dict, n_z: int) -> float:
    timeline = ControlTimeline(
        (ControlSegment(0.0, 1000.0, medium["rabi"], "beamsplit"),))
    traj = evolve(
        MediumParams(od=medium["od"], delta=medium["delta"]), timeline,
        SimulationConfig(t_end=T_END, n_z=n_z),
        pulse=PulseEnvelope(fwhm=PULSE_FWHM, t_center=PULSE_CENTER),
    )
    a_in = refs.gaussian_amplitude(traj.times, PULSE_FWHM, PULSE_CENTER)
    return refs.relative_l2(traj.emitted, refs.eit_output(a_in, traj.dt, **medium))


def main() -> None:
    media = [("corner", dict(zip(CONSTANT_DRIVE_BOX, values)))
             for values in itertools.product(*CONSTANT_DRIVE_BOX.values())]
    media += [(f"seed {s}", constant_drive_medium(s)) for s in range(SEEDS)]
    print("medium od delta rabi | err@" + " err@".join(map(str, GRIDS))
          + " | ratios | C = err * n_z^2 at the finest grid")
    worst = 0.0
    for label, med in media:
        errs = [error(med, n) for n in GRIDS]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        coef = errs[-1] * GRIDS[-1] ** 2
        worst = max(worst, coef)
        print(f"{label:8s} {med['od']:6.2f} {med['delta']:6.2f} {med['rabi']:6.2f} | "
              + " ".join(f"{e:.3e}" for e in errs) + " | "
              + " ".join(f"{r:.2f}" for r in ratios) + f" | {coef:.4f}")
    print(f"largest C = {worst:.4f}")


if __name__ == "__main__":
    main()
