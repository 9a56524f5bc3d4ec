"""Record one point of the benchmark trajectory: ``BENCH_<src>.json``.

    python3 tools/bench_point.py

Runs ``perfbench/run.py`` once for each workload of ``BENCHMARK.json`` at
each of the seeds 1-5, for the file's ``run_seconds`` each, one run after
another, from the root of the checkout this script sits in.  The runs write
no bytecode (``PYTHONDONTWRITEBYTECODE=1``), so nothing is written under
``perfbench/``.  It writes ``BENCH_<the first 12 hex digits of the
sources' src_sha256>.json`` at the root: for each workload, the median and
the interquartile range (``q3 - q1``, inclusive quartiles) of each
end-to-end metric over the seeds, the operations failed and attempted, the
runner's ``meta`` line and each run's values.  At 20 s a run, the 15 runs
take about 6 minutes on a shared 2-core Xeon VM, set-up included.  It is
not part of the tests.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)


def run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: its ``meta`` line and its final JSON line."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    lines = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                           timeout=60 * seconds).stdout.splitlines()
    meta = next(json.loads(line[len("meta "):]) for line in lines if line.startswith("meta "))
    return meta, json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    point, digests = {"seeds": list(SEEDS), "run_seconds": seconds, "workloads": {}}, set()
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            meta, out = run(workload, seed, seconds)
            digests.add(meta["src_sha256"])
            runs.append({"seed": seed, "meta": meta, "attempted": out["attempted"], "failed": out["failed"],
                         "metrics": {k: m["value"] for k, m in out["metrics"].items()}})
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        units = {k: m["unit"] for k, m in out["metrics"].items()}
        point["workloads"][workload] = {
            "metrics": {k: {**summary([r["metrics"][k] for r in runs]), "unit": units[k]} for k in units},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "meta": {k: v for k, v in runs[0]["meta"].items() if k != "seed"},
            "runs": [{k: v for k, v in r.items() if k != "meta"} for r in runs],
        }
    (digest,) = digests  # every run read the same sources
    path = ROOT / f"BENCH_{digest[:12]}.json"
    path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
