"""Campaign driver: registry, determinism, concurrent callers."""

import contextlib
import json
import sys
import threading

import pytest

from ttensor import (
    THEOREM_IDS,
    HypothesisViolationError,
    SingularTensorError,
    UnknownTheoremError,
    campaigns,
    core,
    eigensolvers,
    fourier,
    run_campaign,
)


def _report_bytes(result) -> bytes:
    lines = [json.dumps(c.to_json_dict()) for c in result.certificates]
    lines.append(json.dumps(result.summary))
    return "\n".join(lines).encode()


def test_registry_contents():
    expected = {
        "loewner-heinz", "hansen-power", "furuta", "young-commuting",
        "young-witness", "complex-norm-a", "complex-norm-b", "complex-norm-c",
        "am-gm", "heinz-family", "holder", "holder-pairs", "holder-corollary",
        "minkowski", "schur", "gershgorin", "bauer-fike", "hoffman-wielandt",
        "diag-spectrum",
    }
    assert set(THEOREM_IDS) == expected


def test_unknown_theorem():
    with pytest.raises(UnknownTheoremError):
        run_campaign("nosuch", trials=1)


def test_zero_trials():
    result = run_campaign("schur", trials=0)
    assert result.certificates == [] and result.violations == 0


def test_campaign_determinism():
    r1 = run_campaign("furuta", n=2, n3=2, trials=12, seed=9)
    r2 = run_campaign("furuta", n=2, n3=2, trials=12, seed=9)
    assert _report_bytes(r1) == _report_bytes(r2)
    r3 = run_campaign("furuta", n=2, n3=2, trials=12, seed=10)
    assert _report_bytes(r1) != _report_bytes(r3)


_CONCURRENT_CAMPAIGNS = (
    ("heinz-family", 2, 2, 10, 4),
    ("furuta", 3, 4, 6, 7),
    ("gershgorin", 3, 5, 6, 2),
)


def _concurrent_reports(order):
    return {
        tid: _report_bytes(run_campaign(tid, n=n, n3=n3, trials=trials, seed=seed))
        for tid, n, n3, trials, seed in order
    }


def test_campaign_concurrent_callers_match_serial():
    # the per-trial memo is a context variable, so campaigns run at once
    # from two caller threads neither share nor clobber each other's memo
    serial = _concurrent_reports(_CONCURRENT_CAMPAIGNS)
    orders = (_CONCURRENT_CAMPAIGNS, _CONCURRENT_CAMPAIGNS[::-1])
    barrier = threading.Barrier(len(orders))
    results, errors = [None] * len(orders), []

    def caller(i):
        try:
            barrier.wait()
            results[i] = _concurrent_reports(orders[i])
            assert core._MEMO.get() is None
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the callers' trials finely
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert results == [serial, serial]


def test_campaign_certificates_reconstructible():
    # a certificate is a pure function of (theorem id, dims, seed, trial params)
    result = run_campaign("loewner-heinz", n=2, n3=3, trials=5, seed=21)
    again = run_campaign("loewner-heinz", n=2, n3=3, trials=5, seed=21)
    for c1, c2 in zip(result.certificates, again.certificates):
        assert c1 == c2


def test_literal_am_gm_finds_counterexample():
    result = run_campaign("am-gm", n=2, n3=2, trials=50, seed=1, mode="literal")
    assert result.violations >= 1
    scalar = result.certificates[0]
    assert scalar.params["trial"] == 0 and not scalar.holds


def test_exploratory_loewner_heinz_r2():
    result = run_campaign(
        "loewner-heinz", n=2, n3=2, trials=100, seed=0, params={"r": 2.0}
    )
    assert result.violations >= 1
    assert not result.certificates[0].holds  # canonical pair is trial 0


def test_summary_fields():
    result = run_campaign("minkowski", n=2, n3=2, trials=3, seed=2)
    s = result.summary
    assert s["theorem_id"] == "minkowski"
    assert s["trials"] == 3
    assert s["violations"] == 0
    assert s["certificates"] == len(result.certificates)
    assert "worst_margin" in s and "worst_params" in s


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5)])
@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_eig_memo_leaves_reports_unchanged(monkeypatch, theorem_id, n, n3):
    # the trial memo covers the transforms as well as the eigensolver; turning
    # it off turns both off
    memo_on = run_campaign(theorem_id, n=n, n3=n3, trials=2, seed=3)
    monkeypatch.setattr(campaigns, "_trial_memo", contextlib.nullcontext)
    memo_off = run_campaign(theorem_id, n=n, n3=n3, trials=2, seed=3)
    assert _report_bytes(memo_on) == _report_bytes(memo_off)


def test_eig_memo_scope_is_per_trial(monkeypatch):
    solved = []
    kernel = eigensolvers._jacobi

    def counting_kernel(stack, max_sweeps):
        solved.extend(m.tobytes() for m in stack)
        return kernel(stack, max_sweeps)

    monkeypatch.setattr(eigensolvers, "_jacobi", counting_kernel)
    run_campaign("furuta", n=3, n3=4, trials=1, seed=5)
    assert core._MEMO.get() is None
    first = list(solved)
    assert len(first) == len(set(first))  # each distinct slice solved once
    run_campaign("furuta", n=3, n3=4, trials=1, seed=5)
    assert solved[len(first):] == first  # nothing survives the trial
    monkeypatch.setattr(campaigns, "_trial_memo", contextlib.nullcontext)
    del solved[:]
    run_campaign("furuta", n=3, n3=4, trials=1, seed=5)
    assert len(solved) > len(first)


def test_transform_memo_scope_is_per_trial(monkeypatch):
    computed = []
    forward, inverse = fourier._to_fourier, fourier._from_fourier

    def counting_forward(a):
        computed.append(("fwd", type(a), a.shape, a.data.tobytes()))
        return forward(a)

    def counting_inverse(s, tol_sym):
        computed.append(("inv", s.slices.shape, tol_sym, s.slices.tobytes()))
        return inverse(s, tol_sym)

    monkeypatch.setattr(fourier, "_to_fourier", counting_forward)
    monkeypatch.setattr(fourier, "_from_fourier", counting_inverse)
    run_campaign("furuta", n=3, n3=5, trials=1, seed=5)
    assert core._MEMO.get() is None
    first = list(computed)
    assert len(first) == len(set(first))  # each distinct input transformed once
    run_campaign("furuta", n=3, n3=5, trials=1, seed=5)
    assert computed[len(first):] == first  # nothing survives the trial
    monkeypatch.setattr(campaigns, "_trial_memo", contextlib.nullcontext)
    del computed[:]
    run_campaign("furuta", n=3, n3=5, trials=1, seed=5)
    assert len(computed) > len(first)


def test_bauer_fike_all_draws_singular(monkeypatch):
    def singular(q):
        raise SingularTensorError(0, float("inf"))

    monkeypatch.setattr(campaigns, "t_inverse", singular)
    with pytest.raises(HypothesisViolationError, match=r"seed=7, trial=0"):
        run_campaign("bauer-fike", n=2, n3=2, trials=1, seed=7)


def test_bauer_fike_no_well_conditioned_draw(monkeypatch):
    monkeypatch.setattr(campaigns, "spectral_norm", lambda a: 1e3)
    with pytest.raises(HypothesisViolationError, match=r"seed=8, trial=0"):
        run_campaign("bauer-fike", n=2, n3=2, trials=1, seed=8)
