"""The contract of the store of kept quantities (``ttensor.core._KEPT``),
checked by a stateful test.

A state machine interleaves small campaigns, public calls on tensors drawn
from a pool of three seeds (so equal bytes recur, in new tensors and in
tensors that keep their stacks), the same calls made at once from a second
thread, the PSD generators at several ``delta``s, emptying the store and
replacing it by an empty store of another bound.  After every step:

* every output has the bytes of the same call with the store off (a store
  of bound 0, which keeps nothing, and tensors made afresh);
* the store holds at most its bound, and its size is the sum of its
  entries, each its key's bytes and its values' bytes;
* every stored array is read-only and holds no more memory than its own
  bytes (it is no view of a larger array);
* an array returned to a caller is its own: ``t_eigenvalues``' arrays are
  writable and share no memory with a stored array, and a tensor's entries
  are read-only.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ttensor import (
    THEOREM_IDS,
    RngStream,
    TEigenSpectrum,
    Tensor3,
    core,
    eigensolvers,
    gen_commuting_psd_pair,
    gen_loewner_pair,
    gen_random,
    gen_t_psd,
    is_t_psd,
    loewner_ge,
    run_campaign,
    spectral_norm,
    t_eigenvalues,
    t_inverse,
    t_power,
    t_product,
)

SEEDS = (0, 1, 2)
N, N3 = 3, 4
BOUNDS = (0, 4 << 10, 64 << 10, 2 << 20)


def _tensors(seed: int) -> tuple[Tensor3, Tensor3]:
    """The uniform tensor and the PSD tensor drawn at ``seed``, made afresh."""
    return gen_random((N, N, N3), RngStream(seed)), gen_t_psd(N, N3, RngStream(seed, 1))


# each public call on (a, p, b, q): the uniform and PSD tensors of two seeds
CALLS = {
    "t_product": lambda a, p, b, q: t_product(a, b),
    "t_inverse": lambda a, p, b, q: t_inverse(a),
    "spectral_norm": lambda a, p, b, q: spectral_norm(p),
    "t_eigenvalues": lambda a, p, b, q: t_eigenvalues(a),
    "t_eigenvalues_psd": lambda a, p, b, q: t_eigenvalues(p),
    "t_power": lambda a, p, b, q: t_power(p, 0.5),
    "is_t_psd": lambda a, p, b, q: is_t_psd(q),
    "loewner_ge": lambda a, p, b, q: loewner_ge(p + q, q),
}


# the generators that build a PSD instance, and the deltas they take: both
# zeros, whose bits differ, and two deltas equal to six decimals
GENERATORS = {"gen_t_psd": gen_t_psd, "gen_loewner_pair": gen_loewner_pair,
              "gen_commuting_psd_pair": gen_commuting_psd_pair}
DELTAS = (0.0, -0.0, 1e-3, 1e-3 + 1e-9, 0.5)


def _bytes(out) -> bytes:
    if isinstance(out, tuple):  # a generated pair
        return b"".join(map(_bytes, out))
    if isinstance(out, Tensor3):
        return out.data.tobytes()
    if isinstance(out, TEigenSpectrum):
        return out.values.tobytes() + out.slice_index.tobytes()
    return repr(out).encode()  # a float or a verdict: repr keeps every bit


def _report_bytes(result) -> bytes:
    lines = [json.dumps(c.to_json_dict()) for c in result.certificates]
    return "\n".join([*lines, json.dumps(result.summary)]).encode()


def _arrays(values: dict):
    """The arrays of one entry's values, by name."""
    for v in values.values():
        yield from (v.values, v.vectors) if isinstance(v, eigensolvers.HermitianEigen) else (v,)


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _stored_arrays():
    for key, (_, values) in list(core._KEPT._entries.items()):
        yield key.data
        yield from _arrays(values)


_REFERENCES = {}  # the outputs with the store off, by call


def _store_off(name, run):
    """``run()``'s bytes against an empty store of bound 0, computed once."""
    if name not in _REFERENCES:
        kept = core._KEPT
        core._KEPT = core._Store(0)
        try:
            _REFERENCES[name] = run()
        finally:
            core._KEPT = kept
    return _REFERENCES[name]


class StoreContract(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.original = core._KEPT
        core._KEPT = core._Store(core._KEPT_BYTES)
        self.held = {seed: _tensors(seed) for seed in SEEDS}  # tensors that keep their stacks
        self.second_thread = ThreadPoolExecutor(max_workers=1)

    def teardown(self):
        self.second_thread.shutdown()
        core._KEPT = self.original

    @rule(theorem_id=st.sampled_from(THEOREM_IDS), n3=st.sampled_from([3, 4]), seed=st.sampled_from(SEEDS))
    def campaign(self, theorem_id, n3, seed):
        def run():
            return _report_bytes(run_campaign(theorem_id, n=2, n3=n3, trials=2, seed=seed))

        assert run() == _store_off(("campaign", theorem_id, n3, seed), run)

    @rule(name=st.sampled_from(sorted(CALLS)), first=st.sampled_from(SEEDS), second=st.sampled_from(SEEDS),
          held=st.booleans())
    def public_call(self, name, first, second, held):
        def call(tensors):
            return CALLS[name](*tensors(first), *tensors(second))

        self._check(name, first, second, call(self.held.get if held else _tensors))

    @rule(name=st.sampled_from(sorted(CALLS)), first=st.sampled_from(SEEDS), second=st.sampled_from(SEEDS))
    def public_call_from_two_threads(self, name, first, second):
        # the same call on the same held tensors, here and on a second thread at once
        def call():
            return CALLS[name](*self.held[first], *self.held[second])

        there = self.second_thread.submit(call)
        here = call()
        for out in (here, there.result()):
            self._check(name, first, second, out)

    def _check(self, name, first, second, out):
        """``out`` has the bytes of the call with the store off, and is the caller's own."""
        def fresh():
            return _bytes(CALLS[name](*_tensors(first), *_tensors(second)))

        assert _bytes(out) == _store_off((name, first, second), fresh)
        if isinstance(out, TEigenSpectrum):  # the caller's own arrays
            stored = list(_stored_arrays())
            for array in (out.values, out.slice_index):
                assert array.flags.writeable and not any(np.shares_memory(array, s) for s in stored)
                array[...] = 0  # the caller's to change: no later call may see it
        elif isinstance(out, Tensor3):
            assert not out.data.flags.writeable  # immutable, so it may share the store's memory

    @rule(name=st.sampled_from(sorted(GENERATORS)), seed=st.sampled_from(SEEDS),
          deltas=st.tuples(st.sampled_from(DELTAS), st.sampled_from(DELTAS)))
    def generate(self, name, seed, deltas):
        # one generator at two deltas in turn, on the same uniforms
        for delta in deltas:
            def run():
                return _bytes(GENERATORS[name](N, N3, RngStream(seed, 2), delta))

            assert run() == _store_off((name, seed, delta.hex()), run)

    @rule()
    def empty_the_store(self):
        core._KEPT.clear()

    @rule(bound=st.sampled_from(BOUNDS))
    def bound(self, bound):
        core._KEPT = core._Store(bound)

    @invariant()
    def size_is_within_the_bound_and_the_sum_of_the_entries(self):
        store = core._KEPT
        entries = list(store._entries.items())
        assert store.size <= store.bound
        assert store.size == sum(held for _, (held, _) in entries)
        for key, (held, values) in entries:
            assert held == key.data.nbytes + sum(a.nbytes for a in _arrays(values))

    @invariant()
    def stored_arrays_are_read_only_and_hold_only_their_bytes(self):
        for a in _stored_arrays():
            assert not a.flags.writeable and _root(a).nbytes == a.nbytes


StoreContract.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None, derandomize=True, database=None
)
test_store_contract = StoreContract.TestCase
