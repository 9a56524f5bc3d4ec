"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

Short runs of every workload check that each declared metric appears with its
unit; the output checks are shown to reject corrupted results.  Corruption is
applied to the checker's input only.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_short_run_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.spans"] > 0
        if workload == "tube-algebra":
            assert values["eigensolvers.hermitian_eig.calls"] == 0
            assert values["eigensolvers.general_eig.calls"] == 0
        else:
            assert values["campaigns.run_campaign.calls"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "tube-algebra", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def tt():
    run.prepare_environment()
    import ttensor

    return ttensor


@pytest.fixture(scope="module")
def small_call(tt):
    """A checked registry-small call and its (correct) result."""
    state = workloads.WORKLOADS["registry-small"].build(tt, 0)
    workloads.WORKLOADS["registry-small"].prepare(state)
    call = next(c for c in workloads.small_calls(state, 0) if c.label.startswith("complex-norm-a|literal"))
    return call, call.invoke()


def _with_certificates(result, certificates):
    summary = dict(result.summary,
                   certificates=len(certificates),
                   violations=sum(1 for c in certificates if not c.holds))
    return dataclasses.replace(result, certificates=certificates, summary=summary)


def test_campaign_check_accepts_recorded_result(small_call):
    call, result = small_call
    assert result.violations > 0  # literal-mode counterexamples are expected outputs
    call.check(result)


def test_campaign_check_accepts_roundoff(small_call):
    call, result = small_call
    certs = [dataclasses.replace(c, margin=c.margin * (1 + 1e-12) + 1e-16)
             for c in result.certificates]
    call.check(_with_certificates(result, certs))


@pytest.mark.parametrize("corruption", ["drop", "flip", "margin", "summary"])
def test_campaign_check_rejects_corruption(small_call, corruption):
    call, result = small_call
    certs = list(result.certificates)
    i = next(k for k, c in enumerate(certs) if c.holds and abs(c.margin) > 1e-3)
    if corruption == "drop":
        corrupted = _with_certificates(result, certs[:-1])
    elif corruption == "flip":
        certs[i] = dataclasses.replace(certs[i], holds=False)
        corrupted = _with_certificates(result, certs)
    elif corruption == "margin":
        certs[i] = dataclasses.replace(certs[i], margin=certs[i].margin * (1 + 1e-4))
        corrupted = _with_certificates(result, certs)
    else:
        corrupted = dataclasses.replace(
            result, summary=dict(result.summary, violations=result.violations + 1))
    with pytest.raises(workloads.CheckError):
        call.check(corrupted)


@pytest.fixture(scope="module")
def tube_calls(tt):
    workload = workloads.WORKLOADS["tube-algebra"]
    state = workload.build(tt, 0)
    workload.prepare(state)
    return {c.label: c for c in workloads.tube_calls(state, 0)}


@pytest.mark.parametrize("label", ["t_product 4x4x256", "t_inverse 4x4x256",
                                   "round_trip 4x4x256"])
def test_tube_check_rejects_corrupted_tensor(tt, tube_calls, label):
    call = tube_calls[label]
    result = call.invoke()
    call.check(result)
    data = result.data.copy()
    data[1, 2, 3] += 1e-6 * abs(data).max()
    with pytest.raises(workloads.CheckError):
        call.check(tt.Tensor3(data))


def test_tube_check_rejects_corrupted_scalar_and_verdict(tt, tube_calls):
    norm = tube_calls["spectral_norm 4x4x256"]
    value = norm.invoke()
    norm.check(value)
    with pytest.raises(workloads.CheckError):
        norm.check(value * (1 + 1e-8))
    ortho = tube_calls["is_orthogonal 8x8x256"]
    ortho.check(ortho.invoke())
    with pytest.raises(workloads.CheckError):
        ortho.check(tt.PredicateVerdict(False, "corrupted"))


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 201)))[:2] == ("p90", 180)
    label, value, beyond = run.tail_percentile(list(range(1, 51)))
    assert (label, value, beyond) == ("p80.0", 40, 10)
