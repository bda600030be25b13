"""Passes of one workload in a fresh interpreter.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --out DIR \
        [--seconds S] [--trace-file PATH] [--no-cuts]

Imports magnonbs and prints "ready" once the package is importable (the
parent times this as set-up).  With `--probe` it then times the
calibration kernel (bench/calibrate.py) and prints, as one JSON line, the
factor from raw to reference seconds, so that the parent can scale the
set-up time.  Otherwise it repeats passes until `--seconds` have gone by
(at least one pass; `--seconds 0`, or a workload with fixed inputs, makes
exactly one), each pass with its own inputs from the seed and the pass
index and its own output directory under DIR, and checks each pass's
outputs after it.  A `calibrate.Meter` reads the machine's speed before
the first pass, after every pass and, unless `--no-cuts`, after every call
the workload names in `cuts_after`; each pass's time is given raw and in
reference seconds.  The peak resident memory is read after the first
pass, before any check has run.  It prints one JSON line.  With
`--trace-file` the tracer covers the first pass only (use `--seconds 0`),
and its spans are written to that file at the end.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
from pathlib import Path

KERNELS = 3  # kernel calls per speed reading


def _cut_after(names: tuple[str, ...], meter) -> list:
    """Make `meter` cut after every call of the named functions."""
    from tracing import rebind

    wrappers = {}
    for name in names:
        module, _, attr = name.rpartition(".")
        fn = getattr(importlib.import_module(f"magnonbs.{module}"), attr)

        def cutting(*args, _fn=fn, **kwargs):
            try:
                return _fn(*args, **kwargs)
            finally:
                meter.cut()

        wrappers[id(fn)] = (fn, functools.wraps(fn)(cutting))
    return rebind(wrappers)


def main() -> int:
    import magnonbs.cli  # noqa: F401  (what the `magnonbs` command imports)

    print("ready", flush=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-file")
    parser.add_argument("--no-cuts", action="store_true")
    args = parser.parse_args()
    import calibrate

    calibrate.kernel()  # warm-up: first calls into numpy and scipy
    if args.probe:
        meter = calibrate.Meter(KERNELS)
        print(json.dumps({"set_up_scale": meter.scale()[0]}), flush=True)
        return 0

    from tracing import Tracer, restore
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace_file:
        tracer = Tracer()
        tracer.install()

    meter = calibrate.Meter(KERNELS)
    set_up_scale = meter.scale()[0]
    undo = []
    if not args.no_cuts:
        # Speed readings inside the pass, after each call the workload
        # names.  A traced pass and its twin go without: the readings
        # would swell the traced spans.
        undo = _cut_after(workload.cuts_after, meter)
    walls, cpus, checks = [], [], []
    attempted = failed = 0
    peak_mb = None
    stop = time.monotonic() + args.seconds
    while True:
        out_dir = Path(args.out) / f"pass{len(walls)}"
        out_dir.mkdir()
        state = workload.prepare(args.seed, len(walls), out_dir)
        meter.start()
        n, bad = workload.execute(state)
        wall, cpu = meter.stop()
        walls.append(wall)
        cpus.append(cpu)
        attempted += n
        failed += bad
        if peak_mb is None:
            # ru_maxrss is in KiB on Linux; read before any check allocates.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        checks += workload.check(state).items
        if time.monotonic() >= stop or not workload.repeatable:
            break
    restore(undo)

    wall_scale, cpu_scale = meter.scale()
    result = {"wall_s": walls, "cpu_s": cpus,
              "scaled_wall_s": [w * wall_scale for w in walls],
              "scaled_cpu_s": [c * cpu_scale for c in cpus],
              "set_up_scale": set_up_scale, "peak_rss_mb": peak_mb,
              "attempted": attempted, "failed": failed, "checks": checks}
    if tracer is not None:
        result["spans"] = tracer.summary()
        tracer.write(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
