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


def _from_empty_store(run, *args, **kwargs):
    """``run(*args, **kwargs)`` from an empty store of kept quantities, so it
    computes every slice and spectrum it needs instead of adopting those an
    earlier run of the same draws stored (:data:`ttensor.core._KEPT`)."""
    core._KEPT.clear()
    return run(*args, **kwargs)


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


@pytest.mark.parametrize("name", ["n", "n3", "trials", "seed"])
def test_campaign_integer_arguments_are_checked(monkeypatch, name):
    # a bool or a non-integral size, trial count or seed is refused, naming
    # the argument, before any trial runs
    calls = []
    monkeypatch.setattr(campaigns, "_certified", lambda *args: calls.append(args))
    for value in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            run_campaign("furuta", **{"n": 2, "n3": 2, "trials": 1, name: value})
    assert calls == []


def test_campaign_takes_numpy_integers_and_reports_plain_ints():
    kwargs = dict(n=2, n3=3, trials=2, seed=-1)
    result = run_campaign("furuta", **{k: np.int64(v) for k, v in kwargs.items()})
    assert all(type(result.summary[k]) is int for k in kwargs)
    assert _report_bytes(result) == _report_bytes(run_campaign("furuta", **kwargs))
    # a negative seed is taken modulo 2^64, not as seed 0
    assert _report_bytes(run_campaign("furuta", **{**kwargs, "seed": 0})) != _report_bytes(result)


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


def test_params_take_only_the_keys_the_draw_reads():
    # a params key the theorem's draw never reads is refused before any
    # trial runs, naming the theorem and the keys it takes
    with pytest.raises(ValueError, match=r"^furuta takes no params \['r'\]; its params: none$"):
        run_campaign("furuta", n=2, n3=2, trials=1, params={"r": 0.5})
    with pytest.raises(ValueError, match=r"^holder takes no params \['rr'\]; its params: r, p$"):
        run_campaign("holder", n=2, n3=2, trials=0, params={"rr": 7.0, "r": 1.0})
    assert run_campaign("loewner-heinz", n=2, n3=2, trials=0, params={"r": 2.0}).certificates == []
    # each key a theorem takes is read: it moves the report off the default grid
    values = {"r": 0.6, "p": 2.5, "t": 0.5, "exploratory": True}
    for theorem_id in THEOREM_IDS:
        default = _report_bytes(run_campaign(theorem_id, n=2, n3=2, trials=2, seed=0))
        for key in campaigns._REGISTRY[theorem_id].params:
            moved = run_campaign(theorem_id, n=2, n3=2, trials=2, seed=0, params={key: values[key]})
            assert _report_bytes(moved) != default, (theorem_id, key)


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
    r2 = _from_empty_store(run_campaign, "furuta", n=2, n3=2, trials=12, seed=9)
    assert _report_bytes(r1) == _report_bytes(r2)
    r3 = run_campaign("furuta", n=2, n3=2, trials=12, seed=10)
    assert _report_bytes(r1) != _report_bytes(r3)


# loewner-heinz draws furuta's Loewner pairs and solves the same first
# wave, so the callers race on the same entries of the store
_CONCURRENT_CAMPAIGNS = (
    ("heinz-family", 2, 2, 10, 4),
    ("furuta", 3, 4, 6, 7),
    ("loewner-heinz", 3, 4, 6, 7),
    ("gershgorin", 3, 5, 6, 2),
)


def _concurrent_reports(order, run=run_campaign):
    return {
        tid: _report_bytes(run(tid, n=n, n3=n3, trials=trials, seed=seed))
        for tid, n, n3, trials, seed in order
    }


def test_campaign_concurrent_callers_match_serial():
    # a campaign keeps nothing that changes its output, so campaigns run at
    # once from two caller threads give their lone serial reports
    serial = _concurrent_reports(_CONCURRENT_CAMPAIGNS, run_campaign_serial)
    core._KEPT.clear()  # the callers fill the store as they race
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
    again = _from_empty_store(run_campaign, "loewner-heinz", n=2, n3=3, trials=5, seed=21)
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


def _solve_each_stack_alone(patch) -> list:
    """Give every wave of independent slice spectra no shared solver call:
    a stand-in for :func:`ttensor.core._solve_together` solves each float
    stack of the wave alone.  Returns the sizes of the waves of two or more
    unsolved stacks that it split, as they are asked for."""
    solve_together = core._solve_together
    split = []

    def each_alone(*wave):
        stacks = {id(x): x for x in wave if isinstance(x, _Stack) and "spectra" not in x._held}
        if len(stacks) > 1:
            split.append(len(stacks))
        for x in stacks.values():
            x.spectra()

    callers = [
        module for name, module in sys.modules.items()
        if name.startswith("ttensor.") and module is not core
        and getattr(module, "_solve_together", None) is solve_together
    ]
    assert callers  # the modules that ask for waves
    for module in callers:
        patch.setattr(module, "_solve_together", each_alone)
    return split


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5)])
@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_shared_wave_solves_leave_reports_unchanged(monkeypatch, theorem_id, n, n3):
    # spectra that a window needs at one point share a solver call; solving
    # each stack alone instead leaves the reports as they are.  The alone
    # run starts from an empty store, or it would adopt the shared run's
    # spectra and solve nothing
    shared = run_campaign(theorem_id, n=n, n3=n3, trials=2, seed=3)
    with monkeypatch.context() as patch:
        split = _solve_each_stack_alone(patch)
        alone = _from_empty_store(run_campaign, theorem_id, n=n, n3=n3, trials=2, seed=3)
    assert bool(split) == (theorem_id in _WAVE_THEOREMS)
    assert _report_bytes(shared) == _report_bytes(alone)


def _repeated_furuta_calls(kernels, kernel, n3) -> list:
    """The stacks handed to ``kernel`` by a furuta campaign (as bytes, one
    entry a call), after checking that a repeated campaign adopts what the
    store kept and calls the kernel no more, and that with the store
    emptied it makes the same calls on the same stacks again."""
    def calls():
        return [a.tobytes() for a in kernels[kernel]]

    run_campaign("furuta", n=3, n3=n3, trials=1, seed=5)
    first = calls()
    run_campaign("furuta", n=3, n3=n3, trials=1, seed=5)
    assert calls() == first
    core._KEPT.clear()
    run_campaign("furuta", n=3, n3=n3, trials=1, seed=5)
    assert calls()[len(first):] == first
    return first


def test_repeated_campaign_solves_the_same_members(kernels):
    assert len(_repeated_furuta_calls(kernels, "_jacobi", 4)) == 3  # the three waves of furuta


def test_repeated_campaign_transforms_the_same_stacks(kernels):
    assert _repeated_furuta_calls(kernels, "_forward", 5)


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
    assert _report_bytes(_from_empty_store(run_campaign, "bauer-fike", **kwargs)) == serial
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
_WINDOW_CONFIGS = _ORACLE_CONFIGS[:11]


def _oracle_configs(configs):
    return pytest.mark.parametrize(
        "theorem_id,mode,params", configs,
        ids=[f"{tid}-{mode}{'-r2' if params else ''}" for tid, mode, params in configs],
    )


def _window_matches_serial_oracle(theorem_id, mode, params, n, n3, trials, seed):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed, mode=mode, params=params)
    assert _report_bytes(run_campaign(theorem_id, **kwargs)) == _report_bytes(
        _from_empty_store(run_campaign_serial, theorem_id, **kwargs)
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
    """The error of a run from an empty store, so each run meets its errors
    where a first run meets them."""
    with pytest.raises(Exception) as info:
        _from_empty_store(run, *args, **kwargs)
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


def _solved_per_trial(monkeypatch, kernels, theorem_id, **kwargs):
    """Stacks each trial hands the Jacobi kernel in the serial oracle, in
    order."""
    first_call = {}
    real = campaigns._REGISTRY[theorem_id]

    def draw(window, *args):
        (trial,) = window.trials  # the serial oracle draws one trial a window
        first_call[trial] = len(kernels["_jacobi"])
        return real.draw(window, *args)

    with monkeypatch.context() as patch:
        patch.setitem(campaigns._REGISTRY, theorem_id, campaigns._Stacked(draw, real.certify))
        run_campaign_serial(theorem_id, **kwargs)
    ends = [*first_call.values(), len(kernels["_jacobi"])]
    return {trial: kernels["_jacobi"][start:end] for trial, start, end in zip(first_call, ends, ends[1:])}


def test_merged_call_error_reaches_only_its_trial(monkeypatch, kernels):
    kwargs = dict(n=4, n3=4, trials=4, seed=0)
    stacks = _solved_per_trial(monkeypatch, kernels, "furuta", **kwargs)
    others = {m.tobytes() for t in (0, 1, 3) for s in stacks[t] for m in s}
    poison = next(m.tobytes() for s in stacks[2] for m in s if m.tobytes() not in others)
    kernel = eigensolvers._jacobi
    raised_sizes = []

    def poisoned_kernel(stack, norm):
        if any(m.tobytes() == poison for m in stack):
            raised_sizes.append(len(stack))
            raise NotSymmetricError("poisoned member")
        return kernel(stack, norm)

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


def test_window_merges_each_wave_into_one_call(monkeypatch, kernels):
    # furuta solves only 4x4 stacks, so wave r of the window
    # is one kernel call holding every trial's r-th stack
    kwargs = dict(n=4, n3=4, trials=8, seed=0)
    per_trial = _solved_per_trial(monkeypatch, kernels, "furuta", **kwargs)
    kernels.clear()
    threads_before = threading.active_count()
    _from_empty_store(run_campaign, "furuta", **kwargs)
    assert threading.active_count() == threads_before
    calls = kernels.sizes("_jacobi")
    assert len(calls) == max(len(s) for s in per_trial.values())
    assert sum(calls) == sum(len(s) for t in per_trial.values() for s in t)


# --- sharing a solver call across each wave ----------------------------------

# Jacobi kernel calls of one campaign at (4, 4, 4) and at (3, 128, 1), with
# each stack solved alone and with each wave of independent stacks in one
# call, for the same members.  Solving alone, each stack solves its
# half-slice stack in a call of its own where its wave is asked for.  |X|^r takes an
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
# the theorems whose windows put two or more stacks in one wave
_WAVE_THEOREMS = {tid for tid, ((alone, shared), _) in _SHARED_WAVE_CALLS.items() if alone > shared}


def _solved_members(monkeypatch, kernels, theorem_id, shared_waves, **kwargs):
    """Jacobi kernel calls of one campaign from an empty store, and the
    members they solved."""
    kernels.clear()
    with monkeypatch.context() as patch:
        if not shared_waves:
            _solve_each_stack_alone(patch)
        result = _from_empty_store(run_campaign, theorem_id, **kwargs)
    return result, kernels.count("_jacobi")[0], sorted(kernels.members("_jacobi"))


@pytest.mark.parametrize("n,n3,trials,seed", [(4, 4, 4, 5), (3, 128, 1, 7)])
@pytest.mark.parametrize("theorem_id", sorted(_SHARED_WAVE_CALLS))
def test_shared_wave_kernel_calls(monkeypatch, kernels, theorem_id, n, n3, trials, seed):
    kwargs = dict(n=n, n3=n3, trials=trials, seed=seed)
    plain, plain_calls, plain_members = _solved_members(monkeypatch, kernels, theorem_id, False, **kwargs)
    shared, shared_calls, shared_members = _solved_members(monkeypatch, kernels, theorem_id, True, **kwargs)
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
        serial = _from_empty_store(run_campaign_serial, theorem_id, **kwargs)
    assert _report_bytes(ahead) == _report_bytes(serial)


@pytest.mark.parametrize("n,n3,trials", [(4, 4, 16), (3, 5, 3), (2, 2, 70)])
@pytest.mark.parametrize("theorem_id", ["gershgorin", "bauer-fike", "schur"])
def test_window_merges_general_eig_solves(kernels, theorem_id, n, n3, trials):
    # each trial takes the t-eigenvalues of the same number of non-symmetric
    # tensors, so a window takes every trial's general solves in one call
    kwargs = dict(n=n, n3=n3, trials=trials, seed=0)
    serial = _report_bytes(run_campaign_serial(theorem_id, **kwargs))
    calls = kernels.sizes("_qr_eig")
    per_trial, rem = divmod(len(calls), trials)
    assert rem == 0 and per_trial >= 1
    solved = sum(calls)
    kernels.clear()
    assert _report_bytes(_from_empty_store(run_campaign, theorem_id, **kwargs)) == serial
    windows = -(-trials // campaigns._window_size(n, n3))
    calls = kernels.sizes("_qr_eig")
    assert len(calls) == windows and sum(calls) == solved


def test_merged_general_eig_failure_reaches_only_its_trial(monkeypatch, kernels):
    # with 2 QR steps per eigenvalue only trial 3's slices run out of steps
    monkeypatch.setattr(eigensolvers, "_QR_STEPS_PER_EIGENVALUE", 2)
    kwargs = dict(n=3, n3=3, trials=8, seed=0)
    log = _track_trials(monkeypatch, "gershgorin")
    expected = _raised(run_campaign_serial, "gershgorin", **kwargs)
    assert expected[0] is EigenConvergenceError
    assert [t for t in sorted(log) if not log[t]["ok"]] == [3]
    kernels.clear()
    log.clear()
    threads_before = threading.active_count()
    assert _raised(run_campaign, "gershgorin", **kwargs) == expected
    assert threading.active_count() == threads_before
    # the window's call of all 8 half spectra (2 slices each) raised, then
    # the trials ran again one by one up to trial 3
    assert kernels.sizes("_qr_eig") == [16] + [2] * 4
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


def _registry_pass(seed: int) -> list:
    return [
        _report_bytes(run_campaign(tid, n=4, n3=4, trials=4, seed=seed, mode=mode, params=params))
        for tid, mode, params in _ALL_CONFIGS
    ]


def _held(store) -> int:
    return sum(size for size, _ in store._entries.values())


def test_store_stays_within_its_bound_and_changes_no_report():
    # a registry pass at one seed shares slices and spectra across its
    # campaigns; the store holds at most its bound, evicting the oldest
    # entries past it, and a pass gives the same bytes whatever it finds
    store = core._KEPT
    shared = _registry_pass(0)
    assert 0 < store.size == _held(store) <= core._KEPT_BYTES
    first = set(store._entries)
    # passes at distinct seeds, enough that together with pass 0 they hold
    # more than the bound
    for seed in range(1, core._KEPT_BYTES // store.size + 1):
        _registry_pass(seed)
        assert store.size == _held(store) <= core._KEPT_BYTES
    assert not first <= set(store._entries)  # some of pass 0's entries were evicted
    assert _registry_pass(0) == shared  # what is left of pass 0 adopted, the rest solved again
    store.clear()
    assert _registry_pass(0) == shared


_PASS_KERNELS = ("_forward", "_inverse", "_jacobi", "_qr_eig")


# Kernel calls of one registry pass at seed 5 from an empty store: the 19
# corrected theorems at each tube length, and every configuration at
# (4, 4, 4).  A theorem that draws a PSD instance which an earlier theorem
# of the pass built adopts it, and the slices and spectra kept for it, so the
# pass builds, transforms and solves it once.  With a 1 MiB store and no kept
# instances the counts were (102, 72, 17, 3) at each tube length and
# (124, 99, 20, 2) at (4, 4, 4).
_PASS_KERNEL_CALLS = [
    # (n, n3, trials), configurations, (_forward, _inverse, _jacobi, _qr_eig)
    ((3, 128, 1), _ORACLE_CONFIGS[:len(THEOREM_IDS)], (91, 66, 15, 2)),
    ((3, 127, 1), _ORACLE_CONFIGS[:len(THEOREM_IDS)], (91, 66, 15, 2)),
    ((4, 4, 4), _ALL_CONFIGS, (124, 91, 20, 2)),
]


@pytest.mark.parametrize(
    "dims,configs,expected", _PASS_KERNEL_CALLS, ids=["3-128-1", "3-127-1", "4-4-4-all"]
)
def test_registry_pass_kernel_calls(kernels, dims, configs, expected):
    n, n3, trials = dims
    for theorem_id, mode, params in configs:
        run_campaign(theorem_id, n=n, n3=n3, trials=trials, seed=5, mode=mode, params=params)
    assert kernels.count(*_PASS_KERNELS) == expected


def _psd_uniforms(seed: int) -> np.ndarray:
    """Two trials' uniforms for 3x3x8 PSD instances, along a trial axis."""
    return np.array([gen_random((3, 3, 8), RngStream(seed, t)).data for t in range(2)])


def test_psd_instance_is_kept_read_only_and_adopted_with_the_bytes_of_a_fresh_build(kernels):
    uniforms = _psd_uniforms(33)
    kept = _t_psd(_Stack(uniforms))
    kernels.clear()
    adopted = _t_psd(_Stack(uniforms.copy()))  # equal uniforms, another stack
    assert kernels.count(*_PASS_KERNELS) == (0, 0, 0, 0) and adopted.data is kept.data
    assert not adopted.data.flags.writeable
    with pytest.raises(ValueError):
        adopted.data[0, 0, 0, 0] = 1.0
    fresh = _from_empty_store(_t_psd, _Stack(uniforms.copy()))
    assert kernels.count("_inverse") == (1,) and fresh.data.tobytes() == adopted.data.tobytes()


def test_psd_instance_is_named_by_the_exact_bits_of_delta():
    r = _Stack(_psd_uniforms(34))
    built = {delta.hex(): _t_psd(r, delta) for delta in (0.0, -0.0, 0.5)}
    assert len(built) == 3
    for bits, x in built.items():
        assert core._KEPT.get(r.key, ("t_psd", bits)) is x.data
    assert _t_psd(r, 0).data is built[(0.0).hex()].data


def test_psd_instance_of_uniforms_over_the_bound_is_built_and_not_stored(kernels):
    members = core._KEPT_BYTES // (2 * 2 * 4 * 8) + 1  # data one member over the bound
    r = _Stack(np.random.default_rng(35).uniform(-1.0, 1.0, (members, 2, 2, 4)))
    assert r.key is None
    kernels.clear()
    first, again = _t_psd(r), _t_psd(r)  # the stack keeps its own instance
    assert kernels.count("_inverse") == (1,) and again.data is first.data
    second = _t_psd(_Stack(r.data.copy()))  # equal bytes, but nothing is stored to share
    assert kernels.count("_inverse") == (2,) and core._KEPT.size == 0 and not core._KEPT._entries
    assert first.data.tobytes() == second.data.tobytes()


def test_interrupt_in_a_window_is_not_rerun(monkeypatch):
    # an interrupt is not an error of a trial: it leaves the window at once
    calls = []

    def interrupted(stack, norm):
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
def test_window_solver_calls(kernels, theorem_id):
    run_campaign(theorem_id, n=4, n3=4, trials=4, seed=1)
    assert kernels.count("_jacobi", "_qr_eig") == (
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
    assert _report_bytes(_from_empty_store(run_campaign, theorem_id, **kwargs)) == serial


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


def test_bauer_fike_takes_both_spectra_in_one_general_solve(kernels):
    run_campaign("bauer-fike", n=4, n3=4, trials=4, seed=5)
    # one call per window: 4 trials x 2 tensors x 3 half slices
    assert kernels.sizes("_qr_eig") == [24]
    kernels.clear()
    _from_empty_store(run_campaign_serial, "bauer-fike", n=4, n3=4, trials=2, seed=5)
    assert kernels.sizes("_qr_eig") == [6, 6]


@pytest.mark.parametrize("n,n3,trials", [(4, 4, 4), (3, 128, 1)])
def test_bauer_fike_conjugator_takes_one_singular_value_svd(kernels, n, n3, trials):
    # the conjugator stack q keeps its singular values: _conjugators'
    # acceptance, its inverse's check and the certifier's norm of q read one
    # SVD of q; the one inverse and a - b take one each
    run_campaign("bauer-fike", n=n, n3=n3, trials=trials, seed=0)
    assert kernels.singular_value_shapes() == [(trials, n3 // 2 + 1, n, n)] * 3


@pytest.mark.parametrize("n,n3,trials", [(4, 4, 4), (3, 128, 1)])
def test_bauer_fike_window_inverts_its_conjugators_once(kernels, n, n3, trials):
    # the draw inverts the accepted conjugator stack and hands the inverse to
    # the certifier, which inverts nothing
    run_campaign("bauer-fike", n=n, n3=n3, trials=trials, seed=0)
    assert kernels.shapes("inv") == [(trials, n3 // 2 + 1, n, n)]
