"""Record the benchmark of one commit against another as a BENCH_*.json file.

    python tools/bench_record.py --base HEAD~1 --head HEAD \
        --workload oracle:10 --workload gate:3 --seeds 1,2,3 \
        --out BENCH_new.json

Each revision's committed files are extracted with `git archive` into a
temporary directory, and `bench/run.py --trace 0` runs from each in turn,
for the `run_seconds` that BENCHMARK.json sets:
pairs of one base run and one head run, alternating which goes first, so
that a drift in machine speed falls on both sides alike.  Pair k runs at
seed `seeds[k % len(seeds)]`.  `--workload NAME:PAIRS` may repeat.

The file holds every run's result line, the median and quartiles of each
end-to-end metric per workload and side, the number of pairs in which the
head's value was lower, the seeds, both git shas, the number of usable
cores and the Python and numpy versions.  Standard library only; not part
of the test suite.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract(sha: str, dest: Path) -> Path:
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        tar.extractall(dest)
    return dest


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record(shas: dict[str, str], plan: list[tuple[str, int]], seeds: list[int]) -> dict:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: extract(sha, Path(tmp) / side) for side, sha in shas.items()}
        for workload, pairs in plan:
            for k in range(pairs):
                seed = seeds[k % len(seeds)]
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                for side in order:
                    result = bench(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "pair": k, "side": side,
                                 "seed": seed, **result})
                    print(f"{workload} pair {k} {side}: "
                          f"wall_s {result['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr)

    workloads = {}
    for workload, pairs in plan:
        mine = [r for r in runs if r["workload"] == workload]
        by_side = {side: sorted((r for r in mine if r["side"] == side),
                                key=lambda r: r["pair"]) for side in shas}
        metrics = {}
        for name in mine[0]["metrics"]:
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in by_side.items()}
            metrics[name] = {
                **{side: summary(v) for side, v in values.items()},
                "head_lower_in": sum(h < b for h, b in zip(values["head"], values["base"])),
            }
        workloads[workload] = {
            "pairs": pairs,
            "correct": all(r["correct"] for r in mine),
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in by_side.items()},
            "metrics": metrics,
        }

    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {
        "command": "bench/run.py --trace 0",
        "seconds": seconds,
        "seeds": seeds,
        "git": shas,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "workloads": workloads,
        "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="git revision to compare against")
    parser.add_argument("--head", default="HEAD", help="git revision being measured")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS, for example oracle:10")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds, cycled over pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        if not pairs.isdigit() or int(pairs) < 1:
            parser.error(f"--workload must look like NAME:PAIRS, got {item!r}")
        plan.append((name, int(pairs)))
    seeds = [int(s) for s in args.seeds.split(",")]
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("base", args.base), ("head", args.head))}

    result = record(shas, plan, seeds)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
