"""Record the campaign reference the benchmark checks outputs against.

    python3 perfbench/record_reference.py [registry-small|registry-long-tube ...]

For every campaign call any pass of the workload can issue (every pool seed,
and for the long-tube workload both tube lengths), stores the certificate and
violation counts and each certificate's margin and effective tolerance in
``perfbench/reference/<workload>.json``.  Run it only at a commit whose
outputs are trusted: later commits are checked against what it writes.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(name: str) -> dict:
    import ttensor

    workload = workloads.WORKLOADS[name]
    pool = workloads.POOL_SIZE[name]
    state = workload.build(ttensor, 0)  # seed 0 starts at the head of the pool
    # passes 0 .. 2*pool-1 visit every pool seed, with both tube lengths on the
    # long-tube workload (parity alternates per pass)
    entries = {}
    for p in range(2 * pool if name == "registry-long-tube" else pool):
        for call in workload.calls(state, p):
            d = workloads.campaign_digest(call.invoke())
            d["margins"] = [float(f"{m:.12g}") for m in d["margins"]]
            d["tols"] = [float(f"{t:.4g}") for t in d["tols"]]
            entries[call.label] = d
    return entries


def main(argv) -> int:
    run.prepare_environment()
    names = argv or ["registry-small", "registry-long-tube"]
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        entries = record(name)
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
            fh.write("{\n")
            fh.write(",\n".join(
                f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                for k, v in sorted(entries.items())
            ))
            fh.write("\n}\n")
        print(f"{name}: {len(entries)} calls recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
