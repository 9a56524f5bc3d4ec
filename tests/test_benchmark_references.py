"""The benchmark's recorded campaign references hold for the current code.

``perfbench/workloads.py`` checks every campaign a registry workload issues
against a reference recorded from the program (``perfbench/reference``).
Here every campaign the two registry workloads can issue, every pool seed and
both tube lengths, runs through the workload's own schedule and
``check_campaign``, so a change that moves a margin out of its band fails
here and not only in a benchmark run.  The module is read and executed
without importing it from its directory, so nothing under ``perfbench`` is
written.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

import ttensor

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


@pytest.mark.parametrize("name", ["registry-small", "registry-long-tube"])
def test_every_reference_campaign_passes(workloads, name):
    workload = workloads.WORKLOADS[name]
    state = workload.build(ttensor, 0)
    workload.prepare(state)
    # enough passes to visit every pool seed at both tube lengths
    passes = 2 * max(workloads.POOL_SIZE.values())
    calls = {c.label: c for p in range(passes) for c in workload.calls(state, p)}
    assert set(calls) == set(state["reference"])
    failed = []
    for label, call in calls.items():
        try:
            call.check(call.invoke())
        except workloads.CheckError as e:
            failed.append(f"{label}: {e}")
    assert not failed, f"{len(failed)} of {len(calls)} campaigns off their reference:\n" + "\n".join(failed)
