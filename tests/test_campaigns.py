"""Campaign driver: registry, determinism, concurrent callers, stacked
windows against the serial oracle."""

import dataclasses
import inspect
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import run_campaign_serial
from ttensor import (
    THEOREM_IDS,
    EigenConvergenceError,
    HypothesisViolationError,
    NotSymmetricError,
    RngStream,
    ShapeMismatchError,
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
from ttensor import core
from ttensor.core import _commuting_psd_pairs, _loewner_pairs, _Stack, _t_psd


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


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_campaign_sizes_are_checked(theorem_id):
    # a size no tensor or trial count can take is refused before any draw
    for sizes in (dict(n=0), dict(n3=0), dict(n=-2, n3=-2), dict(trials=-5)):
        with pytest.raises(ValueError, match=r"^need n >= 1, n3 >= 1 and trials >= 0"):
            run_campaign(theorem_id, **{"trials": 1, **sizes})
    empty = run_campaign(theorem_id, n=1, n3=1, trials=0)
    assert empty.certificates == [] and empty.summary["trials"] == 0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_campaign_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN, infinite or negative tolerance makes every verdict against it wrong
    for theorem_id in ("furuta", "minkowski"):
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0"):
            run_campaign(theorem_id, n=2, n3=2, trials=1, tol=tol)


def test_campaign_runs_at_zero_tolerance():
    result = run_campaign("minkowski", n=2, n3=2, trials=2, tol=0.0)
    assert len(result.certificates) == 4 and all(c.tol == 0.0 for c in result.certificates)


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_unknown_mode(theorem_id):
    # one check for every theorem, not only those whose certifier has modes
    with pytest.raises(ValueError, match=r"^unknown mode 'bogus'$"):
        run_campaign(theorem_id, n=2, n3=2, trials=1, mode="bogus")


def test_hoffman_wielandt_pairs_each_member_once(monkeypatch):
    # a symmetric pair's optimal pairing is the sorted one, so the sorted
    # certificates take its distance instead of sorting the spectra again
    calls = []
    pairing = spectral._sorted_pairing

    def counting_pairing(lam, mu):
        calls.append(len(lam))
        return pairing(lam, mu)

    monkeypatch.setattr(spectral, "_sorted_pairing", counting_pairing)
    monkeypatch.setattr(localization, "_sorted_pairing", counting_pairing)
    result = run_campaign("hoffman-wielandt", n=3, n3=5, trials=3, seed=0)
    assert calls == [15] * 3
    for trial in range(3):
        optimal, _, sorted_sqrt, _ = result.certificates[4 * trial: 4 * trial + 4]
        assert sorted_sqrt.params["pairing"] == "sorted"
        assert sorted_sqrt.lhs == optimal.lhs


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
    # adding the campaign's gives the campaign's certificate
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


def _count_made(monkeypatch, *classes) -> dict:
    """How many objects of each class are made from here on, by class name."""
    made = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return made


def test_campaign_makes_each_certificate_once(monkeypatch):
    # a certificate is made once, with its provenance, and never copied;
    # the stack algebra keeps t-eigenvalues as arrays
    made = _count_made(monkeypatch, certificates.InequalityCertificate, spectral.TEigenSpectrum)
    for theorem_id in ("furuta", "schur"):
        made["InequalityCertificate"] = 0
        result = run_campaign(theorem_id, n=3, n3=3, trials=200)
        assert made == {"InequalityCertificate": len(result.certificates), "TEigenSpectrum": 0}


def test_holder_trial_takes_each_abs_power_once(monkeypatch):
    # both norms' certificates come from one |AXB|^r, |A^p X|^r and |X B^q|^r,
    # taken as the three members of one stacked call
    calls = []
    abs_power = core._Stack.abs_power

    def counting_abs_power(x, r):
        calls.append([len(x), list(r)])
        return abs_power(x, r)

    monkeypatch.setattr(core._Stack, "abs_power", counting_abs_power)
    result = run_campaign("holder", n=2, n3=2, trials=1, seed=3)
    assert calls == [[3, [0.5, 0.5, 0.5]]]
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
    the wave's one call fails before it reaches the kernel, so each stack of
    the wave is solved where it is used."""
    solve_together = core._solve_together

    def refuse(stack):
        raise EigenConvergenceError("no shared call")

    def without_a_shared_call(*wave):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(eigensolvers, "_jacobi", refuse)
            solve_together(*wave)

    callers = [
        module for name, module in sys.modules.items()
        if name.startswith("ttensor.") and module is not core
        and getattr(module, "_solve_together", None) is solve_together
    ]
    assert callers  # the modules that ask for waves
    for module in callers:
        patch.setattr(module, "_solve_together", without_a_shared_call)


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5)])
@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_shared_wave_solves_leave_reports_unchanged(monkeypatch, theorem_id, n, n3):
    # spectra that a window needs at one point share a solver call; solving
    # each stack alone instead leaves the reports as they are
    shared = run_campaign(theorem_id, n=n, n3=n3, trials=2, seed=3)
    with monkeypatch.context() as patch:
        _solve_each_stack_alone(patch)
        alone = run_campaign(theorem_id, n=n, n3=n3, trials=2, seed=3)
    assert _report_bytes(shared) == _report_bytes(alone)


def test_repeated_campaign_solves_the_same_members(monkeypatch):
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


def test_repeated_campaign_transforms_the_same_stacks(monkeypatch):
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


def _singular_values_as(monkeypatch, largest, smallest):
    """Every stack reports ``largest`` as the first singular value of each
    half slice and ``smallest`` as the others, so each conjugator candidate
    is judged by these."""
    def singular_values(self):
        sv = np.full((len(self), fourier._half_size(self.n3), min(self.shape[:2])), smallest)
        sv[..., 0] = largest
        return sv

    monkeypatch.setattr(_Stack, "singular_values", singular_values)


def test_bauer_fike_all_draws_singular(monkeypatch):
    _singular_values_as(monkeypatch, 1.0, 0.0)
    with pytest.raises(HypothesisViolationError, match=r"seed=7, trial=0"):
        run_campaign("bauer-fike", n=2, n3=2, trials=1, seed=7)


def test_bauer_fike_no_well_conditioned_draw(monkeypatch):
    _singular_values_as(monkeypatch, 1e3, 1e-3)
    with pytest.raises(HypothesisViolationError, match=r"seed=8, trial=0"):
        run_campaign("bauer-fike", n=2, n3=2, trials=1, seed=8)


def _no_serial_rerun(*args):
    raise AssertionError("the stacked pass raised and the window ran trial by trial")


def test_bauer_fike_rejected_first_conjugators_draw_on_alone(monkeypatch):
    # at a bound of 10 about half of the first candidates at (3, 3) fail:
    # those trials draw on alone, each from where its own stream stands
    monkeypatch.setattr(campaigns, "_CONJUGATOR_MAX_COND", 10.0)
    kwargs = dict(n=3, n3=3, trials=16, seed=2)
    serial = _report_bytes(run_campaign_serial("bauer-fike", **kwargs))
    lone, random = set(), campaigns._Window.random

    def recording_random(w, *dims):
        if len(w.trials) == 1:  # a lone redraw inside the 16-trial window
            lone.add(w.trials[0])
        return random(w, *dims)

    monkeypatch.setattr(campaigns._Window, "random", recording_random)
    monkeypatch.setattr(campaigns, "_run_trial", _no_serial_rerun)
    assert _report_bytes(run_campaign("bauer-fike", **kwargs)) == serial
    assert 0 < len(lone) < 16


def test_bauer_fike_rejects_an_all_zero_candidate():
    # trial 0's candidate is all zero, so its singular values are 0 and it
    # draws on alone; trial 1 keeps its candidate and the stack is inverted
    w = campaigns._Window(4, [0, 1], 3, 4)
    first = w.random()
    candidates = _Stack(np.stack([np.zeros((3, 3, 4)), first.data[1]]))
    assert not campaigns._well_conditioned(candidates)[0]
    with np.errstate(all="raise"):
        q, q_inv = campaigns._conjugators(w, candidates)
    redraw = campaigns._Window(4, [0], 3, 4)
    redraw.random()
    assert q.data[0].tobytes() == redraw.random().data[0].tobytes()
    assert q.data[1].tobytes() == first.data[1].tobytes()
    assert q_inv.data.tobytes() == core._t_inverse(q).data.tobytes()


@pytest.mark.parametrize("b", [1, 4, 64])
@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 127, 128])
def test_stacked_builders_match_public_generators(n3, b):
    # each trial draws from its own stream, so a window's stacked build
    # gives every member the bytes of the public generator called alone
    n, seed = 3, 11

    def build(name):
        w = campaigns._Window(seed, range(b), n, n3)
        r = w.random(n, n, n3)
        if name == "gen_symmetric":
            return [r.sym()]
        if name == "gen_t_psd":
            return [_t_psd(r)]
        if name == "gen_loewner_pair":
            return list(_loewner_pairs(r, w.random(n, n, n3)))
        return list(_commuting_psd_pairs(r, w.uniform(0.0, 1.0, 4), w.uniform(0.0, 1.0, 4)))

    for name in ("gen_symmetric", "gen_t_psd", "gen_loewner_pair", "gen_commuting_psd_pair"):
        stacks = build(name)
        for t in range(b):
            alone = getattr(core, name)(n, n3, RngStream(seed, t))
            alone = alone if isinstance(alone, tuple) else (alone,)
            assert [x.data[t].tobytes() for x in stacks] == [x.data.tobytes() for x in alone], (name, t)


def test_build_fault_raises_the_lowest_failing_trials_serial_error(monkeypatch):
    # trials 1 and 3 refuse their PSD build; the stacked build meets trial
    # 3 first, a serial loop meets trial 1
    n, n3, seed = 4, 4, 2
    poisoned = {
        campaigns._Window(seed, [t], n, n3).random().data[0].tobytes(): t for t in (1, 3)
    }
    build, raised = campaigns._t_psd, []

    def refusing_build(r, *args):
        for member in r.data[::-1]:
            if member.tobytes() in poisoned:
                raised.append(f"trial {poisoned[member.tobytes()]} refused")
                raise ValueError(raised[-1])
        return build(r, *args)

    monkeypatch.setattr(campaigns, "_t_psd", refusing_build)
    kwargs = dict(n=n, n3=n3, trials=6, seed=seed)
    expected = _raised(run_campaign_serial, "heinz-family", **kwargs)
    assert expected == (ValueError, "trial 1 refused")
    del raised[:]
    assert _raised(run_campaign, "heinz-family", **kwargs) == expected
    assert raised == ["trial 3 refused", "trial 1 refused"]


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
# the configurations checked under the test's current name; the rest keep
# the old name until they move, a few at a time, since test IDs key the
# pass/fail record kept across changes
_WINDOW_CONFIGS = _ORACLE_CONFIGS[:5]


def _oracle_configs(configs):
    return pytest.mark.parametrize(
        "theorem_id,mode,params", configs,
        ids=[f"{tid}-{mode}{'-r2' if params else ''}" for tid, mode, params in configs],
    )


def _window_matches_serial_oracle(theorem_id, mode, params, n, n3, trials, seed):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed, mode=mode, params=params)
    assert _report_bytes(run_campaign(theorem_id, **kwargs)) == _report_bytes(
        run_campaign_serial(theorem_id, **kwargs)
    )


@pytest.mark.parametrize("n,n3,trials,seed", _ORACLE_GRID)
@_oracle_configs(_WINDOW_CONFIGS)
def test_window_matches_serial_oracle(theorem_id, mode, params, n, n3, trials, seed):
    _window_matches_serial_oracle(theorem_id, mode, params, n, n3, trials, seed)


@pytest.mark.parametrize("n,n3,trials,seed", _ORACLE_GRID)
@_oracle_configs(_ORACLE_CONFIGS[len(_WINDOW_CONFIGS):])
def test_lockstep_matches_serial_oracle(theorem_id, mode, params, n, n3, trials, seed):
    _window_matches_serial_oracle(theorem_id, mode, params, n, n3, trials, seed)


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

    def draw(window, *args):
        log.update((trial, {"ok": False}) for trial in window.trials)
        if fail in window.trials and before_solving:
            raise ValueError(f"trial {fail} refused")
        return [(trials, stacks, [*columns, trials]) for trials, stacks, columns in real.draw(window, *args)]

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
    _singular_values_as(monkeypatch, 1.0, 0.0)
    expected = _raised(run_campaign_serial, "bauer-fike", n=2, n3=2, trials=5, seed=7)
    assert expected[0] is HypothesisViolationError and "trial=0)" in expected[1]
    assert _raised(run_campaign, "bauer-fike", n=2, n3=2, trials=5, seed=7) == expected


def _solved_per_trial(monkeypatch, theorem_id, **kwargs):
    """Stacks each trial hands the kernel in the serial oracle, in order."""
    stacks, current = {}, [None]
    real = campaigns._REGISTRY[theorem_id]
    kernel = eigensolvers._jacobi

    def draw(window, *args):
        (current[0],) = window.trials  # the serial oracle draws one trial a window
        stacks[current[0]] = []
        return real.draw(window, *args)

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


def test_window_merges_each_wave_into_one_call(monkeypatch):
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
# call, for the same members.  Solving alone, each stack solves its
# half-slice stack in a call of its own where it is used.  |X|^r takes an
# SVD and no Jacobi call, so holder's calls are its PSD checks and powers of
# A and B, holder-corollary, holder-pairs and minkowski make none, and
# young-witness's are the spectra of |A B^T|, of the right-hand side and of
# the Loewner gap.  The symmetric pairs of diag-spectrum and
# Hoffman-Wielandt take the spectra of their cat, one call either way.
_SHARED_WAVE_CALLS = {
    "complex-norm-c": ((2, 1), (2, 1)),
    "diag-spectrum": ((1, 1), (1, 1)),
    "furuta": ((5, 3), (5, 3)),
    "hansen-power": ((3, 2), (3, 2)),
    "heinz-family": ((2, 1), (2, 1)),
    "hoffman-wielandt": ((1, 1), (1, 1)),
    "holder": ((2, 1), (2, 1)),
    "holder-corollary": ((0, 0), (0, 0)),
    "holder-pairs": ((0, 0), (0, 0)),
    "loewner-heinz": ((4, 2), (4, 2)),
    "minkowski": ((0, 0), (0, 0)),
    "young-commuting": ((4, 2), (4, 2)),
    "young-witness": ((3, 2), (3, 2)),
}


def _solved_members(monkeypatch, theorem_id, shared_waves, **kwargs):
    """Kernel calls of one campaign, and the members they solved."""
    calls, members = [], []
    kernel = eigensolvers._jacobi

    def recording_kernel(stack):
        calls.append(len(stack))
        members.extend(m.tobytes() for m in stack)
        return kernel(stack)

    with monkeypatch.context() as patch:
        patch.setattr(eigensolvers, "_jacobi", recording_kernel)
        if not shared_waves:
            _solve_each_stack_alone(patch)
        result = run_campaign(theorem_id, **kwargs)
    return result, len(calls), sorted(members)


@pytest.mark.parametrize("n,n3,trials,seed", [(4, 4, 4, 5), (3, 128, 1, 7)])
@pytest.mark.parametrize("theorem_id", sorted(_SHARED_WAVE_CALLS))
def test_shared_wave_kernel_calls(monkeypatch, theorem_id, n, n3, trials, seed):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed)
    plain, plain_calls, plain_members = _solved_members(monkeypatch, theorem_id, False, **kwargs)
    shared, shared_calls, shared_members = _solved_members(monkeypatch, theorem_id, True, **kwargs)
    assert (plain_calls, shared_calls) == _SHARED_WAVE_CALLS[theorem_id][n == 3]
    # a wave solves the members that the stacks solved alone would solve
    assert shared_members == plain_members
    assert _report_bytes(shared) == _report_bytes(plain)


_SHARED_WAVE_CONFIGS = [(tid, "corrected", None) for tid in sorted(_SHARED_WAVE_CALLS)] + [
    ("hansen-power", "literal", None),
    ("loewner-heinz", "corrected", {"r": 2.0}),
]


@pytest.mark.parametrize("n,n3,trials,seed", [(4, 4, 4, 0), (3, 5, 3, 1), (2, 2, 70, 1), (3, 127, 2, 0)])
@pytest.mark.parametrize(
    "theorem_id,mode,params", _SHARED_WAVE_CONFIGS,
    ids=[f"{tid}-{mode}{'-r2' if params else ''}" for tid, mode, params in _SHARED_WAVE_CONFIGS],
)
def test_shared_wave_matches_serial_oracle_without_it(
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
def test_window_merges_general_eig_solves(monkeypatch, theorem_id, n, n3, trials):
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
    "furuta": 3, "young-witness": 2, "hansen-power": 2, "young-commuting": 2,
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
    monkeypatch.setattr(campaigns, "_run_trial", _no_serial_rerun)
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


def _grouped(instances: dict) -> list:
    """Each trial's ``(tensors, scalars)`` as draw groups: the trials whose
    tensors share their shapes in one group, in trial order."""
    groups = {}
    for trial, (tensors, _) in instances.items():
        groups.setdefault(tuple(x.shape for x in tensors), []).append(trial)
    return [
        (trials,
         [_Stack(np.stack([x.data for x in column]))
          for column in zip(*(instances[t][0] for t in trials))],
         [list(column) for column in zip(*(instances[t][1] for t in trials))])
        for trials in groups.values()
    ]


def _inject(monkeypatch, theorem_id, faults):
    """Wrap a stacked theorem's draw: ``faults[trial]`` rewrites that
    trial's ``(tensors, scalars)``, or raises."""
    stacked = campaigns._REGISTRY[theorem_id]

    def draw(window, *args):
        instances = {}
        for trials, stacks, columns in stacked.draw(window, *args):
            for i, trial in enumerate(trials):
                instance = (tuple(x.member(i) for x in stacks), tuple(c[i] for c in columns))
                instances[trial] = faults[trial](instance) if trial in faults else instance
        return _grouped(instances)

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
    ("bauer-fike", {2: lambda inst: ((*inst[0][:3], inst[0][3] + _OFF_DIAGONAL, inst[0][4]), ())}),
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
    assert expected[0] in (HypothesisViolationError, ShapeMismatchError, ValueError)
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


@pytest.mark.parametrize("n,n3,trials", [(4, 4, 4), (3, 128, 1)])
def test_bauer_fike_conjugator_takes_one_singular_value_svd(monkeypatch, n, n3, trials):
    # the conjugator stack q keeps its singular values: _conjugators'
    # acceptance, its inverse's check and the certifier's norm of q read one
    # SVD of q; the one inverse and a - b take one each
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    run_campaign("bauer-fike", n=n, n3=n3, trials=trials, seed=0)
    assert calls == [(trials, n3 // 2 + 1, n, n)] * 3


@pytest.mark.parametrize("n,n3,trials", [(4, 4, 4), (3, 128, 1)])
def test_bauer_fike_window_inverts_its_conjugators_once(monkeypatch, n, n3, trials):
    # the draw inverts the accepted conjugator stack and hands the inverse to
    # the certifier, which inverts nothing
    calls, inv = [], np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    run_campaign("bauer-fike", n=n, n3=n3, trials=trials, seed=0)
    assert calls == [(trials, n3 // 2 + 1, n, n)]
