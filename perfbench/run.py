"""ttensor benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ttensor is imported from ``src/``.
One client issues calls in a closed loop: the next call starts only after the
previous one returned.  ``TTENSOR_THREADS`` is cleared and BLAS/OpenMP pools
are held at one thread, so the process runs no extra threads.

``--trace 0`` measures whole passes until ``--seconds`` of call time have
elapsed and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of passes untraced and then the same passes traced, and reports the
per-layer metrics (see ``spans.py``); ``--seconds`` does not apply to it, so
its layer totals always cover the same work.  End-to-end times are scaled
to a reference host speed measured by a probe kernel between calls (see
SPEED_REF_S).  Every output is checked (``workloads.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run metadata and each metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# set-up is measured this many times per run (this process plus fresh child
# processes, run one after another) and the median reported
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
# Latency percentiles are taken over calls, each call counted at the mean
# latency of its configuration (theorem, mode and parameters, or operation and
# shape) in the run.  On a host whose speed flips between two states many times
# a second, single-call latency is mostly host noise; the per-configuration
# mean removes it and keeps the spread of cost across configurations.
# Host speed on a shared machine is not steady.  On a shared 2-core Xeon VM
# (2.0 GHz) a fixed kernel flips between two speeds about 1.8x apart many times
# a second, and the share of slow time drifts over seconds to minutes, so the
# raw run-to-run spread of these workloads reached 25-45%.
# A kernel that does not touch ttensor is therefore timed between calls after
# every SPEED_EVERY_S of call time, and a run's latencies are scaled by
# SPEED_REF_S / (time-weighted mean kernel time over the run): figures are
# reported at the speed of a host that runs the kernel in SPEED_REF_S.  Raw
# figures are printed beside them.
SPEED_EVERY_S = 0.1
SPEED_REF_S = 0.003
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "trials_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "setup_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process that only sets up and prints its set-up time
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    if not (SRC / "ttensor" / "__init__.py").is_file():
        raise SystemExit(f"error: no ttensor sources under {SRC}; run from a source checkout")
    os.environ.pop("TTENSOR_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


class SpeedProbe:
    """Times a fixed kernel that is independent of ttensor (see SPEED_REF_S)."""

    def __init__(self):
        import numpy as np

        self.np = np
        g = np.random.default_rng(0)
        self.m = g.uniform(-1, 1, (4, 4)) + 1j * g.uniform(-1, 1, (4, 4))
        self.tubes = g.uniform(-1, 1, (4, 4, 64))
        j = np.arange(64)
        self.dft = np.exp(-2j * np.pi / 64 * np.outer(j, j))

    def _kernel(self) -> None:
        # small-matrix numpy calls, an interpreter loop and a dense DFT: the
        # kinds of work the workloads spend their time in
        np, a = self.np, self.m
        for _ in range(200):
            a = 0.5 * (a + a.conj().T) @ self.m
            a = a / np.abs(a).max()
        s = 0
        for i in range(4000):
            s += (i * i) % 7
        for _ in range(8):
            np.einsum("kt,ijt->kij", self.dft, self.tubes)

    def sample(self) -> float:
        """One timed kernel run, in seconds."""
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0


def set_up(workload, seed):
    """Import, input generation and warm-up (the first pass of every distinct
    configuration, which also fills the ``dft_matrix`` cache).  Returns the
    set-up time scaled to the reference speed, then the raw time."""
    t0 = perf_counter()
    import numpy  # noqa: F401  (part of what a user's first call pays for)
    import ttensor

    if Path(ttensor.__file__).resolve().parent != SRC / "ttensor":
        raise SystemExit(f"error: imported ttensor from {ttensor.__file__}, not {SRC}")
    state = workload.build(ttensor, seed)
    raw = perf_counter() - t0
    warm = []
    warm_raw, factor = run_passes(workload, state, range(workload.warmup_passes),
                                  lambda *outcome: warm.append(outcome))
    raw += warm_raw
    return raw * factor, raw, ttensor, state, warm


def issue(call):
    """(latency, result, error) of one call."""
    t0 = perf_counter()
    try:
        result = call.invoke()
    except Exception as exc:  # a call that raises is a failed call, the run goes on
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, result, None


class Tally:
    """Latencies and outcomes of the checked calls of a run."""

    def __init__(self):
        self.latencies = []  # (configuration, raw latency)
        self.trials = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, call, latency, result, error, sample=True) -> None:
        if error is None:
            try:
                call.check(result)
            except workloads.CheckError as exc:
                error = f"check failed: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{call.label}: {error}")
        elif sample:
            self.latencies.append((call.config, latency))
            self.trials += call.trials


def run_passes(workload, state, passes, record, budget_s=math.inf, before_call=None):
    """Issue whole passes until ``passes`` ends or raw call time reaches
    ``budget_s``, handing ``record(call, raw latency, result, error)`` each
    outcome.  Returns (raw call time, speed factor): multiplying a raw time by
    the factor gives the time at the reference speed.  Speed probes and
    ``record`` run between calls, untimed."""
    probe = SpeedProbe()
    raw = segment = weighted = 0.0
    before = probe.sample()

    def close_segment():
        nonlocal before, segment, weighted
        after = probe.sample()
        weighted += segment * 0.5 * (before + after)
        before, segment = after, 0.0

    index = 0
    for p in passes:
        for call in workload.calls(state, p):
            if before_call is not None:
                before_call(index)
            index += 1
            latency, result, error = issue(call)
            raw += latency
            segment += latency
            if segment >= SPEED_EVERY_S:
                close_segment()
            record(call, latency, result, error)
        if raw >= budget_s:
            break
    if segment > 0.0:
        close_segment()
    return raw, SPEED_REF_S * raw / weighted


def per_config_means(samples):
    """Each (configuration, latency) sample replaced by its configuration's mean."""
    by_config = {}
    for config, latency in samples:
        by_config.setdefault(config, []).append(latency)
    means = {c: statistics.fmean(v) for c, v in by_config.items()}
    return [means[config] for config, _ in samples]


def tail_percentile(latencies):
    """(label, value) of p90, or of the highest percentile that still has
    TAIL_SAMPLES samples beyond it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    rank = math.ceil(0.9 * n)
    if n - rank < TAIL_SAMPLES:
        rank = max(1, n - TAIL_SAMPLES)
        label = f"p{100.0 * rank / n:.1f}"
    else:
        label = "p90"
    return label, xs[rank - 1], n - rank


def child_setup_s(workload_name, seed) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_setup_s"]


def run_metadata(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ttensor").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "note": f"unpinned, shared {nproc}-core machine; single runs are noisy, "
                f"compare medians over repeated runs",
    }


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own (e.g. an exported tree)
    return lines[1]


def end_to_end(workload, state, args, own_setup, tally):
    gc.collect()
    raw, factor = run_passes(workload, state, itertools.count(workload.warmup_passes),
                             tally.add, budget_s=args.seconds)
    spent = raw * factor
    setups = [own_setup] + [child_setup_s(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS - 1)]
    ok = [latency * factor for latency in per_config_means(tally.latencies)]
    label, tail, beyond = tail_percentile(ok) if ok else ("p90", math.nan, 0)
    metrics = {
        "calls_per_s": len(ok) / spent,
        "trials_per_s": tally.trials / spent,
        "call_p50_ms": statistics.median(ok) * 1e3 if ok else math.nan,
        "call_p90_ms": tail * 1e3,
        "setup_s": statistics.median(s for s, _ in setups),
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "calls_per_s": f"{len(ok)} calls in {spent:.3f} s of call time at reference "
                       f"speed; raw {len(ok) / raw:.6g}/s over {raw:.3f} s",
        "call_p50_ms": f"median of {len(ok)} calls, each at its configuration's mean",
        "call_p90_ms": f"{label} of {len(ok)} calls, {beyond} beyond it",
        "setup_s": "median of " + ", ".join(f"{s:.3f} (raw {r:.3f})" for s, r in setups),
        "pass_ratio": f"1 - fail_ratio; fail_ratio = {tally.failed}/{tally.attempted} "
                      f"= {tally.failed / tally.attempted:.6g}",
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def traced(workload, state, ttensor, args, meta, tally):
    import spans

    passes = range(workload.warmup_passes, workload.warmup_passes + workload.trace_passes)
    gc.collect()
    raw, factor = run_passes(workload, state, passes, tally.add)
    untraced_s = raw * factor
    tracer = spans.Tracer(ttensor)
    tracer.install()
    try:
        gc.collect()
        traced_raw, factor = run_passes(workload, state, passes, tally.add,
                                        before_call=lambda i: setattr(tracer, "call_id", i))
    finally:
        tracer.uninstall()
    traced_s = traced_raw * factor
    # the overhead ratio compares speed-scaled call times; span times are raw
    values = spans.layer_metrics(tracer, tracer.ceilings(), traced_s / untraced_s, traced_raw)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, meta)
    notes = {"trace.spans": f"written to {path.relative_to(ROOT)}"}
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    workload = workloads.WORKLOADS[args.workload]
    setup_s, raw_setup_s, ttensor, state, warm = set_up(workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    workload.prepare(state)
    meta = run_metadata(args)
    tally = Tally()
    for call, latency, result, error in warm:
        # warm-up outputs are checked and counted, but are not latency samples
        tally.add(call, latency, result, error, sample=False)
    if args.trace:
        metrics, notes = traced(workload, state, ttensor, args, meta, tally)
    else:
        metrics, notes = end_to_end(workload, state, args, (setup_s, raw_setup_s), tally)

    print("meta " + json.dumps(meta, sort_keys=True))
    for err in tally.errors[:20]:
        print(f"FAILED {err}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:6s}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
