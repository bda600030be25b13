"""magnonbs benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {gate,longrun,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`, nothing needs installing.  The passes run in fresh interpreters
(bench/worker.py), as a user's command would, with BLAS and OpenMP pinned
to one thread: five of them one after another for a repeatable workload,
which share `--seconds` between them, and one for the gate.  Each makes at
least one pass.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: wall_s and cpu_s, the mean over the workers of
each worker's mean pass time, the workers' largest peak_rss_mb, and
setup_s, the median time to import magnonbs over four probe interpreters
(two before the passes, two after) and the workers.  Times are in
reference seconds: each interpreter scales its times by the machine speed
it reads off a fixed kernel (bench/calibrate.py).
With `--trace 1` one traced pass and one untraced twin run side by side,
and the metrics are the traced pass's per-layer figures plus
trace.overhead_s.  Its spans go to bench/.out/traces/.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import layer_metric
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
SETUP_PROBES = 2  # before the passes, and again after them
# Fresh workers, one after another, that share a run's passes.  The same
# passes run up to 15% faster in one interpreter than in the next, and
# stay so for its whole life (README, "Machine speed"); averaging over
# workers evens that out.  A workload with fixed inputs has one worker.
WORKERS = 5
# Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _start(args: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
        # Unbuffered, so that reading the "ready" line takes nothing more
        # from the pipe; communicate() reads the pipe itself and would miss
        # anything a buffer had read ahead.
        bufsize=0,
    )
    return proc, time.perf_counter()


def _finish(proc: subprocess.Popen, start: float, deadline: float) -> tuple[float, str]:
    """Wait for a worker; return seconds until it was ready, and its last line."""
    try:
        first = proc.stdout.readline().decode()
        ready = time.perf_counter() - start
        if first.strip() != "ready":
            raise BenchError(f"worker did not start: {first!r}")
        rest = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))[0].decode()
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run's deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def _workers(workload: str, seed: int, env, deadline: float,
             runs: list[tuple[float, Path | None]], cuts: bool = True) -> list[dict]:
    """Start one worker per (seconds, trace file) entry, side by side.

    Without `cuts`, the workers take no speed readings inside a pass
    (`--no-cuts`), so that a traced pass and its twin do the same work.
    Each worker's result gets `ready_s`, its time from start to "ready".
    """
    OUT.mkdir(exist_ok=True)
    started, dirs = [], []
    try:
        for seconds, trace_file in runs:
            out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
            dirs.append(out_dir)
            args = ["--workload", workload, "--seed", str(seed),
                    "--out", str(out_dir), "--seconds", str(seconds)]
            if trace_file is not None:
                args += ["--trace-file", str(trace_file)]
            if not cuts:
                args.append("--no-cuts")
            started.append(_start(args, env))
        results = []
        for proc, start in started:
            ready, line = _finish(proc, start, deadline)
            results.append({**json.loads(line), "ready_s": ready})
        return results
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for out_dir in dirs:
            shutil.rmtree(out_dir, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "magnonbs" / "__init__.py").is_file():
        raise BenchError(f"no magnonbs sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = _env()

    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        trace_file = OUT / "traces" / f"{workload}-seed{seed}.jsonl"
        # One traced pass and one untraced twin, side by side on the two
        # cores, so that both see the same machine and a gate run (two
        # passes of over a minute each) stays within its deadline.
        plain, traced = _workers(workload, seed, env, deadline,
                                 [(0.0, None), (0.0, trace_file)], cuts=False)
        workers = [plain, traced]
        metrics = {}
        for name, unit in _layer_units().items():
            if name == "trace.overhead_s":
                value = traced["wall_s"][0] - plain["wall_s"][0]
            else:
                value = layer_metric(traced["spans"], name)
            metrics[name] = {"value": value, "unit": unit}
    else:
        def probes() -> list[float]:
            setup = []
            for _ in range(SETUP_PROBES):
                ready, line = _finish(*_start(["--probe"], env), deadline)
                setup.append(ready * json.loads(line)["set_up_scale"])
            return setup

        # Probes before and after the passes, and every worker's own start,
        # so that the median spans the run.
        setup = probes()
        count = WORKERS if WORKLOADS[workload].repeatable else 1
        workers = [_workers(workload, seed, env, deadline, [(seconds / count, None)])[0]
                   for _ in range(count)]
        setup += probes()
        setup += [w["ready_s"] * w["set_up_scale"] for w in workers]

        def per_pass(key: str) -> float:
            """Scaled pass time: the mean over the workers of their means."""
            return statistics.mean(statistics.mean(w["scaled_" + key]) for w in workers)

        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": per_pass("wall_s"), "unit": "s"},
            "cpu_s": {"value": per_pass("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers),
                            "unit": "MB"},
        }

    bad = [c for w in workers for c in w["checks"]
           if not (c["ok"] and c["perturbed_rejected"])]
    for c in bad:
        print(f"check failed: {json.dumps(c)}", file=sys.stderr)
    return {
        "correct": not bad,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": metrics,
    }


def _layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
