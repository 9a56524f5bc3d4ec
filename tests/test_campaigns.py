"""Campaign driver: registry, determinism, concurrent callers, stacked
windows against the serial oracle."""

import dataclasses
import inspect
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles import run_campaign_serial
from ttensor import (
    THEOREM_IDS,
    EigenConvergenceError,
    HypothesisViolationError,
    NotSymmetricError,
    RngStream,
    ShapeMismatchError,
    SingularTensorError,
    UnknownTheoremError,
    campaigns,
    certificates,
    check_holder,
    eigensolvers,
    fourier,
    gen_random,
    gen_symmetric,
    gen_t_psd,
    identity,
    inequalities,
    localization,
    run_campaign,
    spectral,
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


def _concurrent_reports(order, run=run_campaign):
    return {
        tid: _report_bytes(run(tid, n=n, n3=n3, trials=trials, seed=seed))
        for tid, n, n3, trials, seed in order
    }


def test_campaign_concurrent_callers_match_serial():
    # a campaign keeps no state outside its call, so campaigns run at once
    # from two caller threads give their lone serial reports
    serial = _concurrent_reports(_CONCURRENT_CAMPAIGNS, run_campaign_serial)
    orders = (_CONCURRENT_CAMPAIGNS, _CONCURRENT_CAMPAIGNS[::-1])
    barrier = threading.Barrier(len(orders))
    results, errors = [None] * len(orders), []

    def caller(i):
        try:
            barrier.wait()
            results[i] = _concurrent_reports(orders[i])
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


def test_certifiers_take_no_provenance():
    # a certifier is a pure function of its instance; only a campaign knows
    # the seed and the trial
    fns = [getattr(m, name) for m in (inequalities, localization) for name in m.__all__]
    fns += [certificates.norm_certificate, certificates.loewner_certificate]
    for fn in fns:
        if not inspect.isclass(fn):
            assert not {"seed", "trial"} & set(inspect.signature(fn).parameters), fn.__name__


def test_certifiers_take_no_norm_kind():
    # a norm inequality's certifier returns the certificates of both norms
    for name in inequalities.__all__:
        fn = getattr(inequalities, name)
        assert "norm_kind" not in inspect.signature(fn).parameters, name


def test_campaign_stamps_seed_and_trial():
    result = run_campaign("holder", n=2, n3=2, trials=2, seed=3)
    assert [c.seed for c in result.certificates] == [3, 3, 3, 3]
    assert [next(iter(c.params)) for c in result.certificates] == ["trial"] * 4
    assert [c.params["trial"] for c in result.certificates] == [0, 0, 1, 1]
    # trial 0's instance, certified outside the campaign: no provenance, and
    # stamping it gives the campaign's certificate
    g = RngStream(3, 0).generator()
    a, b = gen_t_psd(2, 2, g), gen_t_psd(2, 2, g)
    x = gen_random((2, 2, 2), g)
    standalone = check_holder(a, x, b, 0.5, 1.25, 5.0)
    assert [c.norm_kind for c in standalone] == ["frobenius", "spectral"]
    for cert, campaign_cert in zip(standalone, result.certificates[:2], strict=True):
        assert cert.seed == -1 and "trial" not in cert.params
        assert "trial" not in cert.to_json_dict()["params"]
        stamped = dataclasses.replace(cert, seed=3, params={"trial": 0, **cert.params})
        assert stamped == campaign_cert


def test_holder_trial_takes_each_abs_power_once(monkeypatch):
    # both norms' certificates come from one |AXB|^r, |A^p X|^r and |X B^q|^r,
    # taken as the three members of one stacked call
    calls = []
    abs_powers = inequalities._abs_powers

    def counting_abs_powers(xs, rs):
        calls.append([[len(x) for x in xs], [r for rk in rs for r in rk]])
        return abs_powers(xs, rs)

    monkeypatch.setattr(inequalities, "_abs_powers", counting_abs_powers)
    result = run_campaign("holder", n=2, n3=2, trials=1, seed=3)
    assert calls == [[[1, 1, 1], [0.5, 0.5, 0.5]]]
    assert [c.norm_kind for c in result.certificates] == ["frobenius", "spectral"]


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


def _solve_each_stack_alone(patch):
    """Give every wave of independent slice spectra no shared solver call:
    each stack of the wave is then solved by the call that takes it."""
    for module in (inequalities, spectral):
        patch.setattr(module, "_hermitian_eigs", lambda stacks: [None] * len(stacks))
    patch.setattr(
        spectral, "_solve_halves", lambda halves, solve: [solve(h) for h in halves]
    )


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5)])
@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_eig_memo_leaves_reports_unchanged(monkeypatch, theorem_id, n, n3):
    # spectra that a window needs at one point share a solver call; solving
    # each stack alone instead leaves the reports as they are
    shared = run_campaign(theorem_id, n=n, n3=n3, trials=2, seed=3)
    with monkeypatch.context() as patch:
        _solve_each_stack_alone(patch)
        alone = run_campaign(theorem_id, n=n, n3=n3, trials=2, seed=3)
    assert _report_bytes(shared) == _report_bytes(alone)


def test_eig_memo_scope_is_per_trial(monkeypatch):
    # nothing is kept between calls: a repeated campaign solves the same
    # members in the same calls
    solved = []
    kernel = eigensolvers._jacobi

    def counting_kernel(stack):
        solved.append([m.tobytes() for m in stack])
        return kernel(stack)

    monkeypatch.setattr(eigensolvers, "_jacobi", counting_kernel)
    run_campaign("furuta", n=3, n3=4, trials=1, seed=5)
    first = list(solved)
    assert len(first) == 3  # the three waves of furuta
    run_campaign("furuta", n=3, n3=4, trials=1, seed=5)
    assert solved[len(first):] == first


def test_transform_memo_scope_is_per_trial(monkeypatch):
    # nothing is kept between calls: a repeated campaign transforms the same
    # stacks again
    computed = []
    forward = fourier._forward

    def counting_forward(data):
        computed.append(data.tobytes())
        return forward(data)

    monkeypatch.setattr(fourier, "_forward", counting_forward)
    run_campaign("furuta", n=3, n3=5, trials=1, seed=5)
    first = list(computed)
    assert first
    run_campaign("furuta", n=3, n3=5, trials=1, seed=5)
    assert computed[len(first):] == first


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


# --- stacked windows against the serial oracle ------------------------------

_COUNTEREXAMPLES = (
    ("am-gm", "literal", None),
    ("complex-norm-a", "literal", None),
    ("complex-norm-b", "literal", None),
    ("hansen-power", "literal", None),
    ("loewner-heinz", "corrected", {"r": 2.0}),
)
_ORACLE_CONFIGS = [(tid, "corrected", None) for tid in THEOREM_IDS] + list(_COUNTEREXAMPLES)
# (n, n3, trials, seed): small shapes of both middle-slice parities, a
# 16-trial window, 70 trials across the 64-trial window boundary, and long
# tubes whose entry budget cuts the window to 3 trials
_ORACLE_GRID = (
    (4, 4, 4, 0), (3, 5, 3, 1), (2, 2, 3, 0), (3, 8, 3, 1), (4, 4, 16, 0),
    (2, 2, 70, 1), (3, 128, 3, 0), (3, 127, 3, 1),
)


@pytest.mark.parametrize("n,n3,trials,seed", _ORACLE_GRID)
@pytest.mark.parametrize(
    "theorem_id,mode,params", _ORACLE_CONFIGS,
    ids=[f"{tid}-{mode}{'-r2' if params else ''}" for tid, mode, params in _ORACLE_CONFIGS],
)
def test_lockstep_matches_serial_oracle(theorem_id, mode, params, n, n3, trials, seed):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed, mode=mode, params=params)
    assert _report_bytes(run_campaign(theorem_id, **kwargs)) == _report_bytes(
        run_campaign_serial(theorem_id, **kwargs)
    )


def test_window_size():
    assert campaigns._window_size(4, 4) == 64
    assert campaigns._window_size(8, 4) == 16
    assert campaigns._window_size(3, 128) == 3
    assert campaigns._window_size(3, 512) == 1


def _raised(run, *args, **kwargs):
    with pytest.raises(Exception) as info:
        run(*args, **kwargs)
    return type(info.value), str(info.value)


def _track_trials(monkeypatch, theorem_id, fail=None, before_solving=False):
    """Wrap a registered theorem: record each trial drawn and whether its
    certificates came back; trial ``fail`` raises, in its draw or after the
    certifier ran on the stack that holds it."""
    real = campaigns._REGISTRY[theorem_id]
    log = {}

    def draw(trial, *args):
        log[trial] = {"ok": False}
        if trial == fail and before_solving:
            raise ValueError(f"trial {trial} refused")
        tensors, scalars = real.draw(trial, *args)
        return tensors, (*scalars, trial)

    def certify(stacks, columns, tol, mode):
        *columns, trials = columns
        out = real.certify(stacks, columns, tol, mode)
        if fail in trials:
            raise ValueError(f"trial {fail} refused")
        for trial in trials:
            log[trial]["ok"] = True
        return out

    monkeypatch.setitem(campaigns._REGISTRY, theorem_id, campaigns._Stacked(draw, certify))
    return log


def _no_thread_starts(monkeypatch):
    def refuse(thread):
        raise AssertionError("a campaign started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # a split transform would have to start this worker's thread, also on a
    # one-CPU machine and after earlier tests started the shared worker
    monkeypatch.setattr(fourier, "_SPLIT", True)
    monkeypatch.setattr(fourier, "_worker", ThreadPoolExecutor(max_workers=1))


@pytest.mark.parametrize("before_solving", [True, False])
@pytest.mark.parametrize("fail", [0, 2])
def test_failing_trial_raises_serial_error(monkeypatch, fail, before_solving):
    log = _track_trials(monkeypatch, "furuta", fail, before_solving)
    expected = _raised(run_campaign_serial, "furuta", n=3, n3=4, trials=4, seed=3)
    threads_before = threading.active_count()
    log.clear()
    assert _raised(run_campaign, "furuta", n=3, n3=4, trials=4, seed=3) == expected
    assert expected == (ValueError, f"trial {fail} refused")
    assert threading.active_count() == threads_before
    # the window's pass raised, and its trials ran again one by one up to
    # the failing one
    assert [t for t in sorted(log) if log[t]["ok"]] == list(range(fail))


def test_every_trial_failing_raises_trial_zero_error(monkeypatch):
    def singular(q):
        raise SingularTensorError(0, float("inf"))

    monkeypatch.setattr(campaigns, "t_inverse", singular)
    expected = _raised(run_campaign_serial, "bauer-fike", n=2, n3=2, trials=5, seed=7)
    assert expected[0] is HypothesisViolationError and "trial=0)" in expected[1]
    assert _raised(run_campaign, "bauer-fike", n=2, n3=2, trials=5, seed=7) == expected


def _solved_per_trial(monkeypatch, theorem_id, **kwargs):
    """Stacks each trial hands the kernel in the serial oracle, in order."""
    stacks, current = {}, [None]
    real = campaigns._REGISTRY[theorem_id]
    kernel = eigensolvers._jacobi

    def draw(trial, *args):
        current[0] = trial
        stacks[trial] = []
        return real.draw(trial, *args)

    def recording_kernel(stack):
        stacks[current[0]].append(stack.copy())
        return kernel(stack)

    with monkeypatch.context() as patch:
        patch.setitem(campaigns._REGISTRY, theorem_id, campaigns._Stacked(draw, real.certify))
        patch.setattr(eigensolvers, "_jacobi", recording_kernel)
        run_campaign_serial(theorem_id, **kwargs)
    return stacks


def test_merged_call_error_reaches_only_its_trial(monkeypatch):
    kwargs = dict(n=4, n3=4, trials=4, seed=0)
    stacks = _solved_per_trial(monkeypatch, "furuta", **kwargs)
    others = {m.tobytes() for t in (0, 1, 3) for s in stacks[t] for m in s}
    poison = next(m.tobytes() for s in stacks[2] for m in s if m.tobytes() not in others)
    kernel = eigensolvers._jacobi
    raised_sizes = []

    def poisoned_kernel(stack):
        if any(m.tobytes() == poison for m in stack):
            raised_sizes.append(len(stack))
            raise NotSymmetricError("poisoned member")
        return kernel(stack)

    monkeypatch.setattr(eigensolvers, "_jacobi", poisoned_kernel)
    log = _track_trials(monkeypatch, "furuta")
    expected = _raised(run_campaign_serial, "furuta", **kwargs)
    assert expected == (NotSymmetricError, "poisoned member")
    # alone, trial 2 first meets the poisoned member in the shared call of
    # its first wave, which gives each stack back to the call that takes it;
    # that call then raises
    alone = list(raised_sizes)
    assert len(alone) == 2 and alone[0] > alone[1]
    log.clear()
    del raised_sizes[:]
    threads_before = threading.active_count()
    assert _raised(run_campaign, "furuta", **kwargs) == expected
    assert threading.active_count() == threads_before
    # the window met it the same way, with all four trials in each call;
    # then the serial rerun met it as trial 2 alone, after trials 0 and 1
    assert raised_sizes == [4 * alone[0], 4 * alone[1], *alone]
    assert [t for t in sorted(log) if log[t]["ok"]] == [0, 1]


def test_lockstep_merges_each_round_into_one_call(monkeypatch):
    # furuta solves only 4x4 stacks, so wave r of the window
    # is one kernel call holding every trial's r-th stack
    kwargs = dict(n=4, n3=4, trials=8, seed=0)
    per_trial = _solved_per_trial(monkeypatch, "furuta", **kwargs)
    calls = []
    kernel = eigensolvers._jacobi

    def counting_kernel(stack):
        calls.append(len(stack))
        return kernel(stack)

    monkeypatch.setattr(eigensolvers, "_jacobi", counting_kernel)
    threads_before = threading.active_count()
    run_campaign("furuta", **kwargs)
    assert threading.active_count() == threads_before
    assert len(calls) == max(len(s) for s in per_trial.values())
    assert sum(calls) == sum(len(s) for t in per_trial.values() for s in t)


# --- sharing a solver call across each wave ----------------------------------

# Jacobi kernel calls of one campaign at (4, 4, 4) and at (3, 128, 1), with
# each stack solved alone and with each wave of independent stacks in one
# call, for the same members.  Solving alone, diag-spectrum and
# hoffman-wielandt take each half spectrum in a call of its own.
_SOLVE_AHEAD_CALLS = {
    "complex-norm-c": ((1, 1), (1, 1)),
    "diag-spectrum": ((8, 1), (2, 1)),
    "furuta": ((5, 3), (5, 3)),
    "hansen-power": ((3, 2), (3, 2)),
    "heinz-family": ((2, 1), (2, 1)),
    "hoffman-wielandt": ((8, 1), (2, 1)),
    "holder": ((3, 2), (3, 2)),
    "holder-corollary": ((1, 1), (1, 1)),
    "holder-pairs": ((1, 1), (1, 1)),
    "loewner-heinz": ((4, 2), (4, 2)),
    "minkowski": ((1, 1), (1, 1)),
    "young-commuting": ((4, 2), (4, 2)),
    "young-witness": ((6, 3), (6, 3)),
}


def _solved_members(monkeypatch, theorem_id, solve_ahead, **kwargs):
    """Kernel calls of one campaign, and the members they solved."""
    calls, members = [], []
    kernel = eigensolvers._jacobi

    def recording_kernel(stack):
        calls.append(len(stack))
        members.extend(m.tobytes() for m in stack)
        return kernel(stack)

    with monkeypatch.context() as patch:
        patch.setattr(eigensolvers, "_jacobi", recording_kernel)
        if not solve_ahead:
            _solve_each_stack_alone(patch)
        result = run_campaign(theorem_id, **kwargs)
    return result, len(calls), sorted(members)


@pytest.mark.parametrize("n,n3,trials,seed", [(4, 4, 4, 5), (3, 128, 1, 7)])
@pytest.mark.parametrize("theorem_id", sorted(_SOLVE_AHEAD_CALLS))
def test_solve_ahead_kernel_calls(monkeypatch, theorem_id, n, n3, trials, seed):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed)
    plain, plain_calls, plain_members = _solved_members(monkeypatch, theorem_id, False, **kwargs)
    ahead, ahead_calls, ahead_members = _solved_members(monkeypatch, theorem_id, True, **kwargs)
    assert (plain_calls, ahead_calls) == _SOLVE_AHEAD_CALLS[theorem_id][n == 3]
    assert ahead_members == plain_members
    assert _report_bytes(ahead) == _report_bytes(plain)


_SOLVE_AHEAD_CONFIGS = [(tid, "corrected", None) for tid in sorted(_SOLVE_AHEAD_CALLS)] + [
    ("hansen-power", "literal", None),
    ("loewner-heinz", "corrected", {"r": 2.0}),
]


@pytest.mark.parametrize("n,n3,trials,seed", [(4, 4, 4, 0), (3, 5, 3, 1), (2, 2, 70, 1), (3, 127, 2, 0)])
@pytest.mark.parametrize(
    "theorem_id,mode,params", _SOLVE_AHEAD_CONFIGS,
    ids=[f"{tid}-{mode}{'-r2' if params else ''}" for tid, mode, params in _SOLVE_AHEAD_CONFIGS],
)
def test_solve_ahead_matches_serial_oracle_without_it(
    monkeypatch, theorem_id, mode, params, n, n3, trials, seed
):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed, mode=mode, params=params)
    ahead = run_campaign(theorem_id, **kwargs)
    with monkeypatch.context() as patch:
        _solve_each_stack_alone(patch)
        serial = run_campaign_serial(theorem_id, **kwargs)
    assert _report_bytes(ahead) == _report_bytes(serial)


def _count_general_kernel(monkeypatch):
    """Stack sizes handed to the general eigensolver's kernel, in order."""
    calls = []
    kernel = eigensolvers._qr_eig

    def counting_kernel(stack):
        calls.append(len(stack))
        return kernel(stack)

    monkeypatch.setattr(eigensolvers, "_qr_eig", counting_kernel)
    return calls


@pytest.mark.parametrize("n,n3,trials", [(4, 4, 16), (3, 5, 3), (2, 2, 70)])
@pytest.mark.parametrize("theorem_id", ["gershgorin", "bauer-fike", "schur"])
def test_lockstep_merges_general_eig_solves(monkeypatch, theorem_id, n, n3, trials):
    # each trial takes the t-eigenvalues of the same number of non-symmetric
    # tensors, so a window takes every trial's general solves in one call
    kwargs = dict(n=n, n3=n3, trials=trials, seed=0)
    calls = _count_general_kernel(monkeypatch)
    serial = _report_bytes(run_campaign_serial(theorem_id, **kwargs))
    per_trial, rem = divmod(len(calls), trials)
    assert rem == 0 and per_trial >= 1
    solved = sum(calls)
    del calls[:]
    assert _report_bytes(run_campaign(theorem_id, **kwargs)) == serial
    windows = -(-trials // campaigns._window_size(n, n3))
    assert len(calls) == windows and sum(calls) == solved


def test_merged_general_eig_failure_reaches_only_its_trial(monkeypatch):
    # with 2 QR steps per eigenvalue only trial 3's slices run out of steps
    monkeypatch.setattr(eigensolvers, "_QR_STEPS_PER_EIGENVALUE", 2)
    kwargs = dict(n=3, n3=3, trials=8, seed=0)
    log = _track_trials(monkeypatch, "gershgorin")
    expected = _raised(run_campaign_serial, "gershgorin", **kwargs)
    assert expected[0] is EigenConvergenceError
    assert [t for t in sorted(log) if not log[t]["ok"]] == [3]
    calls = _count_general_kernel(monkeypatch)
    log.clear()
    threads_before = threading.active_count()
    assert _raised(run_campaign, "gershgorin", **kwargs) == expected
    assert threading.active_count() == threads_before
    # the window's call of all 8 half spectra (2 slices each) raised, then
    # the trials ran again one by one up to trial 3
    assert calls == [16] + [2] * 4
    assert [t for t in sorted(log) if log[t]["ok"]] == [0, 1, 2]


def test_small_windows_start_no_thread(monkeypatch):
    # a window is one pass on the calling thread, and these windows'
    # transforms stay below the split threshold
    _no_thread_starts(monkeypatch)
    threads_before = threading.active_count()
    for theorem_id, n, n3, trials in (
        ("furuta", 3, 128, 1), ("am-gm", 3, 3, 8), ("furuta", 3, 3, 8), ("schur", 3, 3, 8)
    ):
        run_campaign(theorem_id, n=n, n3=n3, trials=trials, seed=1)
    assert threading.active_count() == threads_before


_ALL_CONFIGS = [(tid, "corrected", None) for tid in THEOREM_IDS] + list(_COUNTEREXAMPLES)


def test_campaigns_start_no_thread(monkeypatch):
    _no_thread_starts(monkeypatch)
    for theorem_id, mode, params in _ALL_CONFIGS:
        run_campaign(theorem_id, n=4, n3=4, trials=4, seed=4, mode=mode, params=params)


def test_interrupt_in_a_window_is_not_rerun(monkeypatch):
    # an interrupt is not an error of a trial: it leaves the window at once
    calls = []

    def interrupted(stack):
        calls.append(len(stack))
        raise KeyboardInterrupt

    monkeypatch.setattr(eigensolvers, "_jacobi", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_campaign("furuta", n=3, n3=4, trials=4, seed=0)
    assert len(calls) == 1


# Solver calls of one window at (n, n3, trials) = (4, 4, 4), seed 1: one call
# per wave of independent spectra, whatever the number of trials
_WINDOW_JACOBI_CALLS = {
    "furuta": 3, "young-witness": 3, "hansen-power": 2, "young-commuting": 2,
    "loewner-heinz": 2, "hoffman-wielandt": 1, "diag-spectrum": 1,
    "complex-norm-a": 1, "complex-norm-b": 1, "complex-norm-c": 1,
}
_WINDOW_QR_CALLS = {"schur": 1, "gershgorin": 1, "bauer-fike": 1}


@pytest.mark.parametrize("theorem_id", sorted({**_WINDOW_JACOBI_CALLS, **_WINDOW_QR_CALLS}))
def test_window_solver_calls(monkeypatch, theorem_id):
    jacobi = []
    kernel = eigensolvers._jacobi
    monkeypatch.setattr(eigensolvers, "_jacobi", lambda stack: jacobi.append(len(stack)) or kernel(stack))
    qr = _count_general_kernel(monkeypatch)
    run_campaign(theorem_id, n=4, n3=4, trials=4, seed=1)
    assert (len(jacobi), len(qr)) == (
        _WINDOW_JACOBI_CALLS.get(theorem_id, 0), _WINDOW_QR_CALLS.get(theorem_id, 0)
    )


# --- stacked windows ------------------------------------------------------------

_STACKED_CONFIGS = [(tid, "corrected") for tid in THEOREM_IDS] + [
    ("am-gm", "literal"), ("complex-norm-a", "literal"), ("complex-norm-b", "literal"),
    ("hansen-power", "literal"),
]


def test_stacked_registry_entries():
    stacked = {tid for tid, fn in campaigns._REGISTRY.items() if isinstance(fn, campaigns._Stacked)}
    assert stacked == set(THEOREM_IDS)


@pytest.mark.parametrize("n,n3,trials,seed", [(2, 2, 70, 1), (3, 5, 3, 0), (3, 127, 2, 1)])
@pytest.mark.parametrize("theorem_id,mode", _STACKED_CONFIGS)
def test_stacked_window_matches_serial_oracle(monkeypatch, theorem_id, mode, n, n3, trials, seed):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed, mode=mode)
    serial = _report_bytes(run_campaign_serial(theorem_id, **kwargs))

    def no_serial_rerun(*args):
        raise AssertionError("the stacked pass raised and the window ran trial by trial")

    monkeypatch.setattr(campaigns, "_run_trial", no_serial_rerun)
    assert _report_bytes(run_campaign(theorem_id, **kwargs)) == serial


def test_stacked_window_certifies_once_per_instance_shape(monkeypatch):
    # literal am-gm draws a 1x1x1 instance for trial 0 and 4x4x4 ones after it
    stacked = campaigns._REGISTRY["am-gm"]
    sizes = []

    def certify(stacks, columns, tol, mode):
        sizes.append((len(stacks[0]), stacks[0].shape))
        return stacked.certify(stacks, columns, tol, mode)

    monkeypatch.setitem(
        campaigns._REGISTRY, "am-gm", campaigns._Stacked(stacked.draw, certify)
    )
    run_campaign("am-gm", n=4, n3=4, trials=70, seed=0, mode="literal")
    assert sizes == [(1, (1, 1, 1)), (63, (4, 4, 4)), (6, (4, 4, 4))]


def _inject(monkeypatch, theorem_id, faults):
    """Wrap a stacked theorem's draw: ``faults[trial]`` rewrites that
    trial's ``(tensors, scalars)``, or raises."""
    stacked = campaigns._REGISTRY[theorem_id]

    def draw(trial, *args):
        instance = stacked.draw(trial, *args)
        return faults[trial](instance) if trial in faults else instance

    monkeypatch.setitem(
        campaigns._REGISTRY, theorem_id, campaigns._Stacked(draw, stacked.certify)
    )


def _negate(k):
    """A fault: the instance's ``k``-th tensor negated."""
    def fault(instance):
        tensors, scalars = instance
        return (*tensors[:k], -1.0 * tensors[k], *tensors[k + 1:]), scalars
    return fault


def _replace(k, tensor):
    """A fault: the instance's ``k``-th tensor replaced by ``tensor``."""
    def fault(instance):
        tensors, scalars = instance
        return (*tensors[:k], tensor, *tensors[k + 1:]), scalars
    return fault


def _scalars(*values):
    """A fault: the instance's leading scalars replaced by ``values``."""
    return lambda instance: (instance[0], (*values, *instance[1][len(values):]))


def _refuse(instance):
    raise ValueError("draw refused")


_negate_first = _negate(0)
_RANDOM = gen_random((4, 4, 4), RngStream(0))
_OFF_DIAGONAL = 1e-3 * gen_random((4, 4, 4), RngStream(1))

_FAULTS = [
    # a hypothesis fails in trial 2 only
    ("heinz-family", {2: _negate_first}),
    # the stacked pass meets trial 3's exponent check before trial 1's PSD
    # check; a serial loop meets trial 1 first
    ("heinz-family", {1: _negate_first, 3: lambda inst: (inst[0], (5.0, inst[1][1]))}),
    ("minkowski", {0: lambda inst: (inst[0], (0.5,)), 2: lambda inst: (inst[0], (0.25,))}),
    ("holder", {3: _negate_first}),
    ("holder-pairs", {1: _refuse}),
    # trial 2's B has another shape, so it is certified in a stack of its own
    ("am-gm", {2: lambda inst: ((*inst[0][:2], gen_random((3, 3, 4), RngStream(0))), ())}),
    ("loewner-heinz", {2: _negate_first}),  # the order A >= B fails
    ("loewner-heinz", {1: _scalars(1.5), 3: _negate(1)}),  # exponent, then B >= 0
    ("hansen-power", {1: _negate(1), 4: _scalars(3.0)}),  # X >= 0, then exponent
    ("hansen-power", {2: _replace(0, 3.0 * _RANDOM)}),  # Q is not a contraction
    ("furuta", {3: _scalars(-1.0)}),
    ("furuta", {0: _replace(1, -1.0 * identity(4, 4)), 5: _scalars(1.0, 4.0, 1.0)}),
    ("young-commuting", {2: _negate_first}),
    ("young-commuting", {1: _replace(1, _RANDOM)}),  # B is not even symmetric
    ("young-witness", {1: _scalars(0.5)}),
    ("young-witness", {2: _replace(0, gen_random((4, 3, 4), RngStream(2)))}),
    ("complex-norm-a", {2: _replace(0, _RANDOM)}),
    ("complex-norm-b", {1: _negate_first}),
    ("complex-norm-c", {3: _negate(1)}),
    ("schur", {2: _refuse}),
    ("gershgorin", {1: _replace(0, gen_random((4, 3, 4), RngStream(2)))}),
    ("bauer-fike", {2: lambda inst: ((*inst[0][:3], inst[0][3] + _OFF_DIAGONAL), ())}),
    ("bauer-fike", {1: _replace(0, _RANDOM)}),  # a is not q^-1 s q
    ("hoffman-wielandt", {1: _replace(0, _RANDOM)}),
    ("hoffman-wielandt", {3: _replace(1, gen_random((3, 3, 4), RngStream(3)))}),
    ("diag-spectrum", {3: _replace(1, _RANDOM)}),
    ("diag-spectrum", {0: _replace(1, gen_symmetric(3, 4, RngStream(3)))}),
]


@pytest.mark.parametrize("theorem_id,faults", _FAULTS)
def test_stacked_window_raises_serial_error(monkeypatch, theorem_id, faults):
    _inject(monkeypatch, theorem_id, faults)
    kwargs = dict(n=4, n3=4, trials=6, seed=2)
    expected = _raised(run_campaign_serial, theorem_id, **kwargs)
    assert expected[0] in (HypothesisViolationError, NotSymmetricError, ShapeMismatchError, ValueError)
    assert _raised(run_campaign, theorem_id, **kwargs) == expected


def test_stacked_window_error_is_the_lowest_failing_trial(monkeypatch):
    _inject(monkeypatch, "heinz-family", {1: _negate_first, 3: lambda inst: (inst[0], (5.0, 0.0))})
    raised = _raised(run_campaign, "heinz-family", n=4, n3=4, trials=6, seed=2)
    assert raised[0] is HypothesisViolationError
    assert raised[1].startswith("A is not positive semidefinite")


def test_bauer_fike_takes_both_spectra_in_one_general_solve(monkeypatch):
    calls = _count_general_kernel(monkeypatch)
    run_campaign("bauer-fike", n=4, n3=4, trials=4, seed=5)
    # one call per window: 4 trials x 2 tensors x 3 half slices
    assert calls == [24]
    del calls[:]
    run_campaign_serial("bauer-fike", n=4, n3=4, trials=2, seed=5)
    assert calls == [6, 6]
