"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines as they complete.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import ttensor as tt
from oracles import brute_bcirc

DIM_GRID = [(n, n3) for n in (2, 3, 4) for n3 in (1, 2, 3, 4)]

CAMPAIGN_IDS = [
    "loewner-heinz",
    "furuta",
    "young-commuting",
    "young-witness",
    "hansen-power",
    "am-gm",
    "heinz-family",
    "holder",
    "holder-pairs",
    "holder-corollary",
    "minkowski",
    "complex-norm-a",
    "complex-norm-c",
    "schur",
    "gershgorin",
    "bauer-fike",
    "hoffman-wielandt",
    "diag-spectrum",
]


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_worked_counterexample():
    start = time.time()
    a, b = tt.power_order_counterexample()
    assert tt.loewner_ge(a, b).holds
    gap = tt.loewner_ge(tt.t_product(a, a), tt.t_product(b, b))
    assert not gap.holds
    diff = tt.t_product(a, a) - tt.t_product(b, b)
    assert np.abs(diff.slice(0) - np.array([[4.0, 3.0], [3.0, 2.0]])).max() <= 1e-12
    assert np.abs(diff.slice(1)).max() <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(f"ACCEPTANCE 1 (worked power-order counterexample): PASS ({elapsed:.2f}s)")


def test_criterion_2_dual_path_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n1, n2, n4 = (int(v) for v in rng.integers(1, 6, size=3))
        n3 = int(rng.integers(1, 7))
        a = tt.gen_random((n1, n2, n3), tt.RngStream(2, trial))
        b = tt.gen_random((n2, n4, n3), tt.RngStream(3, trial))
        fast = tt.t_product(a, b)
        slow = tt.fold(brute_bcirc(a.data) @ tt.unfold(b), n1, n3)
        err = tt.frobenius_norm(fast - slow)
        assert err <= 1e-10 * (1 + tt.frobenius_norm(fast))
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(f"ACCEPTANCE 2 (dual-path t-product oracle, 200 instances): PASS ({elapsed:.2f}s)")


def test_criterion_3_spectrum_oracle():
    start = time.time()
    rng = np.random.default_rng(3030)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        n3 = int(rng.integers(1, 5))
        a = tt.gen_random((n, n, n3), tt.RngStream(4, trial))
        mine = tt.t_eigenvalues(a).values
        oracle = tt.general_eig(tt.bcirc(a).matrix.astype(complex))
        assert tt.multiset_distance(mine, oracle) <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(f"ACCEPTANCE 3 (spectrum vs unfolding oracle, 100 instances): PASS ({elapsed:.2f}s)")


def test_criterion_4_norm_transport():
    start = time.time()
    rng = np.random.default_rng(4040)
    for trial in range(200):
        n1, n2 = (int(v) for v in rng.integers(1, 5, size=2))
        n3 = int(rng.integers(1, 5))
        a = tt.gen_random((n1, n2, n3), tt.RngStream(5, trial))
        stacked = tt.fourier_frobenius_norm(tt.to_fourier(a))
        assert abs(tt.frobenius_norm(a) - stacked / np.sqrt(n3)) <= 1e-10 * (1 + stacked)
        direct = np.linalg.svd(brute_bcirc(a.data), compute_uv=False)[0]
        assert abs(tt.spectral_norm(a) - direct) <= 1e-10 * (1 + direct)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(f"ACCEPTANCE 4 (norm transport, 200 instances): PASS ({elapsed:.2f}s)")


@pytest.mark.parametrize("theorem_id", CAMPAIGN_IDS)
def test_criterion_5_campaigns(theorem_id):
    start = time.time()
    total = 0
    violations = 0
    worst = np.inf
    for combo, (n, n3) in enumerate(DIM_GRID):
        result = tt.run_campaign(
            theorem_id, n=n, n3=n3, trials=17, seed=5000 + combo, tol=1e-8
        )
        total += result.summary["trials"]
        violations += result.violations
        worst = min(worst, result.summary["worst_margin"])
    assert total >= 200
    assert violations == 0, f"{theorem_id}: {violations} violations, worst {worst}"
    elapsed = time.time() - start
    _report(
        f"ACCEPTANCE 5 [{theorem_id}]: PASS "
        f"({total} trials, 0 violations, worst margin {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_6_erratum_detection():
    start = time.time()
    r1 = tt.run_campaign("am-gm", n=2, n3=2, trials=50, seed=1, mode="literal")
    assert r1.violations >= 1
    r2 = tt.run_campaign("complex-norm-b", n=2, n3=2, trials=50, seed=1, mode="literal")
    assert r2.violations >= 1
    from ttensor.cli import main

    assert main(["check", "am-gm", "--mode", "literal", "--trials", "20", "--seed", "1"]) == 1
    assert main(["check", "complex-norm-b", "--mode", "literal", "--trials", "20", "--seed", "1"]) == 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(f"ACCEPTANCE 6 (literal-mode errata counterexamples, exit 1): PASS ({elapsed:.2f}s)")


def test_criterion_7_out_of_range_exponent_counterexample():
    start = time.time()
    result = tt.run_campaign(
        "loewner-heinz", n=2, n3=2, trials=100, seed=0, params={"r": 2.0}
    )
    assert result.violations >= 1
    first = result.certificates[0]
    assert first.params.get("instance") == "power-order-counterexample"
    assert not first.holds
    elapsed = time.time() - start
    _report(
        f"ACCEPTANCE 7 (r=2 violation within 100 trials, canonical pair first): "
        f"PASS ({result.violations} violations, {elapsed:.2f}s)"
    )


def test_criterion_8_eigensolver_gates():
    start = time.time()
    rng = np.random.default_rng(8080)
    for trial in range(100):
        n = int(rng.integers(1, 13))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = 0.5 * (m + m.conj().T)
        e = tt.hermitian_eig(m)
        rec = np.linalg.norm(m @ e.vectors - e.vectors * e.values)
        assert rec <= 1e-10 * (1 + np.linalg.norm(m))
        assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(n)) <= 1e-10
    for k in (3, 5, 8):
        companion = np.zeros((k, k), dtype=complex)
        companion[0, -1] = 1.0
        companion[np.arange(1, k), np.arange(k - 1)] = 1.0
        w = tt.general_eig(companion)
        expected = np.exp(2j * np.pi * np.arange(k) / k)
        cost = np.abs(w[:, None] - expected[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10
    elapsed = time.time() - start
    _report(f"ACCEPTANCE 8 (eigensolver quality gates): PASS ({elapsed:.2f}s)")


def test_criterion_9_deterministic_reports():
    start = time.time()
    args = [
        sys.executable, "-m", "ttensor.cli", "check", "hoffman-wielandt",
        "--n", "3", "--n3", "2", "--trials", "15", "--seed", "11", "--json",
    ]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(args, capture_output=True, text=True)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    for line in outputs[0].strip().splitlines():
        json.loads(line)
    elapsed = time.time() - start
    _report(f"ACCEPTANCE 9 (byte-identical reports across processes): PASS ({elapsed:.2f}s)")
