"""Tensor storage, structural operations, norms, and generators."""

import copy
import math
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ttensor import (
    ComplexTensor3,
    RngStream,
    ShapeMismatchError,
    SingularTensorError,
    Tensor3,
    eigensolvers,
    fourier,
    frobenius_norm,
    fourier_frobenius_norm,
    gen_commuting_psd_pair,
    gen_loewner_pair,
    gen_random,
    gen_symmetric,
    gen_t_psd,
    hoffman_wielandt,
    identity,
    inner_product,
    is_t_psd,
    loewner_ge,
    spectral_norm,
    t_eigenvalues,
    t_inverse,
    t_power,
    t_product,
    to_fourier,
    transpose,
)
from ttensor.algebra import _t_inverse
from ttensor.core import _Stack
from oracles import brute_bcirc, direct_inner_product, power_iteration_norm


def test_layout_round_trip():
    # entry (i, j, k) written then read lands at flat index (k*n1 + i)*n2 + j
    n1, n2, n3 = 3, 4, 5
    data = np.arange(n1 * n2 * n3, dtype=float).reshape(n1, n2, n3)
    t = Tensor3(data)
    flat = t.to_flat()
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                assert flat[(k * n1 + i) * n2 + j] == data[i, j, k]
    back = Tensor3.from_flat(flat, n1, n2, n3)
    assert np.array_equal(back.data, data)


def test_construction_rejects_bad_entries():
    with pytest.raises(ValueError):
        Tensor3(np.array([[[np.nan]]]))
    with pytest.raises(ValueError):
        Tensor3(np.array([[[np.inf]]]))
    with pytest.raises(ValueError):
        Tensor3(np.zeros((2, 2)))
    with pytest.raises(ShapeMismatchError):
        Tensor3.from_flat([1.0, 2.0], 1, 1, 1)
    with pytest.raises(ValueError):
        ComplexTensor3(np.array([[[1 + 1j * np.inf]]]))


_COMPLEX = np.arange(8.0).reshape(2, 2, 2) + 1j


def test_real_tensor_refuses_complex_entries():
    with pytest.raises(ValueError, match="complex"):
        Tensor3(_COMPLEX)


def test_from_flat_refuses_complex_entries_before_casting():
    flat = ComplexTensor3(_COMPLEX).to_flat()
    with pytest.raises(ValueError, match="complex"):
        Tensor3.from_flat(flat, 2, 2, 2)
    assert np.array_equal(ComplexTensor3.from_flat(flat, 2, 2, 2).data, _COMPLEX)


def test_real_plus_complex_tensor_is_refused():
    with pytest.raises(ValueError, match="complex"):
        Tensor3(_COMPLEX.real) + ComplexTensor3(_COMPLEX)


def test_transpose_refuses_a_complex_tensor():
    with pytest.raises(ValueError, match="complex"):
        transpose(ComplexTensor3(_COMPLEX))


@pytest.mark.parametrize(
    "call",
    [_Stack.of, lambda c: t_product(c, c), is_t_psd, t_inverse, lambda c: t_power(c, 0.5)],
    ids=["stack-of", "t_product", "is_t_psd", "t_inverse", "t_power"],
)
def test_stack_calls_refuse_a_complex_tensor_by_type(call):
    with pytest.raises(TypeError, match="got ComplexTensor3"):
        call(ComplexTensor3(_COMPLEX))


def test_tensor_is_immutable():
    t = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(AttributeError):
        t.data = np.ones((2, 2, 2))
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


@pytest.mark.parametrize("make", [
    lambda: gen_random((2, 3, 4), RngStream(5)),
    lambda: ComplexTensor3.from_parts(*(gen_random((2, 3, 4), RngStream(s)) for s in (6, 7))),
], ids=["real", "complex"])
@pytest.mark.parametrize("round_trip", [
    lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_tensors_pickle_and_copy(make, round_trip):
    t = make()
    if isinstance(t, Tensor3):
        spectral_norm(t)  # the tensor now keeps its stack
    u = round_trip(t)
    assert type(u) is type(t) and u.data.dtype == t.data.dtype
    assert u.data.tobytes() == t.data.tobytes() and not u.data.flags.writeable
    assert getattr(u, "_stack", None) is None  # the copy keeps no stack of its own yet


# --- each tensor keeps its one-member stack -------------------------------------

def _count_forward(monkeypatch) -> list:
    """The stacks handed to the forward transform, in order."""
    calls, forward = [], fourier._forward
    monkeypatch.setattr(fourier, "_forward", lambda data: calls.append(data.shape) or forward(data))
    return calls


def _count_jacobi(monkeypatch) -> list:
    calls, jacobi = [], eigensolvers._jacobi
    monkeypatch.setattr(eigensolvers, "_jacobi", lambda stack: calls.append(len(stack)) or jacobi(stack))
    return calls


# the public calls that read a tensor's Fourier slices, and those that read its
# slice spectra; each output as bytes (or a verdict of Python floats)
_FOURIER_CALLS = (
    lambda t: t_product(t, t).data.tobytes(),
    lambda t: t_inverse(t).data.tobytes(),
    lambda t: to_fourier(t).slices.tobytes(),
    spectral_norm,
)
_SPECTRAL_CALLS = (
    is_t_psd,
    lambda t: t_power(t, 0.5).data.tobytes(),
    lambda t: t_eigenvalues(t).values.tobytes(),
)


def _on(a, calls) -> list:
    return [f(a) for f in calls]


def _on_fresh(a, calls) -> list:
    """Each call on a fresh tensor of ``a``'s entries."""
    return [f(Tensor3(a.data)) for f in calls]


def test_tensor_is_transformed_once_for_every_call(monkeypatch):
    a = gen_random((3, 3, 8), RngStream(11))
    assert _Stack.of(a) is _Stack.of(a)
    fresh = _on_fresh(a, _FOURIER_CALLS)
    calls = _count_forward(monkeypatch)
    assert _on(a, _FOURIER_CALLS) == fresh
    assert calls == [(1, 3, 3, 8)]
    assert _on(a, _FOURIER_CALLS) == fresh
    assert len(calls) == 1


def test_psd_tensor_is_solved_once_for_every_call(monkeypatch):
    a = gen_t_psd(3, 6, RngStream(12))
    fresh = _on_fresh(a, _SPECTRAL_CALLS)
    calls = _count_jacobi(monkeypatch)
    assert _on(a, _SPECTRAL_CALLS) == fresh
    assert calls == [6 // 2 + 1]  # the half slices of a, in one call
    assert _on(a, _SPECTRAL_CALLS) == fresh
    assert len(calls) == 1


def test_threads_sharing_a_tensor_get_fresh_bytes():
    a = gen_t_psd(4, 64, RngStream(13))
    calls = _FOURIER_CALLS + _SPECTRAL_CALLS
    fresh = _on_fresh(a, calls)
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda _: _on(a, calls), range(8)))
    assert all(r == fresh for r in results)


def test_kept_slices_are_read_only():
    a = gen_random((2, 2, 4), RngStream(14))
    x = _Stack.of(a)
    with pytest.raises(ValueError):
        x.slices[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        to_fourier(a).slices[0, 0, 0] = 1.0
    assert not x.slices.flags.writeable


def test_cat_carries_the_kept_slices(monkeypatch):
    # a cat of stacks that hold their slices transforms nothing, and its
    # slices are bit for bit those of a fresh transform
    a, b = gen_symmetric(3, 8, RngStream(15)), gen_symmetric(3, 8, RngStream(16))
    x, y = _Stack.of(a), _Stack.of(b)
    x.slices, y.slices  # each transformed once and kept
    calls = _count_forward(monkeypatch)
    both = x.cat(y)
    assert calls == [] and not both.slices.flags.writeable
    assert both.slices.tobytes() == _Stack(both.data).slices.tobytes()
    # public hoffman_wielandt of fresh tensors transforms A and B once (its
    # normality gate reads their half slices; no transpose is transformed),
    # then reads the spectra of A and B's cat
    calls.clear()
    hoffman_wielandt(Tensor3(a.data), Tensor3(b.data))
    assert sum(shape[0] for shape in calls) == 2


def test_transpose_n3_equals_1_is_matrix_transpose():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    t = Tensor3(m[:, :, None])
    assert np.array_equal(transpose(t).data[:, :, 0], m.T)


def test_transpose_involution_and_linearity():
    rng = RngStream(101)
    a = gen_random((3, 2, 4), rng)
    b = gen_random((3, 2, 4), RngStream(101, 1))
    assert np.array_equal(transpose(transpose(a)).data, a.data)
    lhs = transpose(a + b)
    rhs = transpose(a) + transpose(b)
    assert np.array_equal(lhs.data, rhs.data)


def test_transpose_matches_bcirc_transpose():
    a = gen_random((3, 2, 4), RngStream(7))
    assert np.array_equal(brute_bcirc(transpose(a).data), brute_bcirc(a.data).T)


def test_identity_structure_and_law():
    eye = identity(3, 4)
    assert np.array_equal(eye.slice(0), np.eye(3))
    assert np.abs(eye.data[:, :, 1:]).max() == 0.0
    assert np.array_equal(brute_bcirc(eye.data), np.eye(12))
    a = gen_random((3, 5, 4), RngStream(11))
    assert frobenius_norm(t_product(eye, a) - a) < 1e-12
    # every Fourier slice of the identity is the identity matrix
    for s in to_fourier(eye).slices:
        assert np.abs(s - np.eye(3)).max() < 1e-14


def test_inner_product_examples():
    a = gen_random((2, 3, 2), RngStream(5))
    zeros = Tensor3.zeros(2, 3, 2)
    assert inner_product(a, zeros) == 0.0
    assert inner_product(a, a) == pytest.approx(frobenius_norm(a) ** 2, rel=1e-14)
    x = Tensor3(np.ones((2, 1, 2)))
    y = Tensor3.from_flat([1.0, 2.0, 3.0, 4.0], 2, 1, 2)
    assert inner_product(x, y) == 10.0
    assert inner_product(x, y) == direct_inner_product(x.data, y.data)
    with pytest.raises(ShapeMismatchError):
        inner_product(x, a)


def test_norms_on_identity():
    eye = identity(4, 3)
    assert frobenius_norm(eye) == pytest.approx(2.0, abs=1e-15)
    assert spectral_norm(eye) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_frobenius_norm_survives_a_sum_of_squares_out_of_range(scale):
    # the plain sum of squares overflows to inf at 1e200 and underflows to 0
    # at 1e-200; such a member is summed again, scaled by its largest entry
    t = Tensor3(np.full((1, 1, 2), scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius_norm(t) == pytest.approx(np.sqrt(2) * scale, rel=1e-15, abs=0)
        assert frobenius_norm(ComplexTensor3.from_parts(t, -t)) == pytest.approx(2 * scale, rel=1e-15, abs=0)
        ordinary = gen_random((2, 3, 4), RngStream(23))
        fro = _stack([ordinary, Tensor3(np.full((2, 3, 4), scale)), Tensor3.zeros(2, 3, 4)]).frobenius()
    # every other member keeps the plain sum's bits
    flat = ordinary.data.ravel()
    assert fro[0] == frobenius_norm(ordinary) == float(np.sqrt(np.vecdot(flat, flat)))
    assert fro[1] == pytest.approx(np.sqrt(24) * scale, rel=1e-15, abs=0)
    assert fro[2] == 0.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_fourier_frobenius_norm_survives_a_sum_of_squares_out_of_range(scale):
    # the library's one Frobenius norm: np.linalg.norm read inf at 1e200
    for t in (Tensor3(np.full((1, 1, 2), scale)), scale * gen_random((3, 2, 6), RngStream(24))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = fourier_frobenius_norm(to_fourier(t))
        assert stacked == pytest.approx(np.sqrt(t.n3) * frobenius_norm(t), rel=1e-14, abs=0)


def test_library_stack_solve_takes_no_hermitian_residual(monkeypatch):
    # a stack's half slices are Hermitian by construction, so its solve takes
    # one norm (the Jacobi threshold's) and no Hermitian residual; only
    # hermitian_eig, for matrices from outside the library, takes both
    norms, frobenius = [], eigensolvers._frobenius
    monkeypatch.setattr(eigensolvers, "_frobenius", lambda d: norms.append(len(d)) or frobenius(d))
    calls = _count_jacobi(monkeypatch)
    a, b = gen_loewner_pair(3, 6, RngStream(25))
    loewner_ge(a, b)
    t_power(a, 0.5)
    hoffman_wielandt(gen_symmetric(3, 6, RngStream(26)), gen_symmetric(3, 6, RngStream(27)))
    assert calls == [4, 4, 8] and norms == calls
    del norms[:], calls[:]
    halves = _Stack.of(a).halves()
    assert np.array_equal(eigensolvers.hermitian_eig(halves).values, _Stack.of(a).spectra().values)
    assert calls == [len(halves)] and norms == [len(halves)] * 3


def test_frobenius_fourier_transport():
    # ||a||_F equals the stacked Fourier norm divided by sqrt(n3)
    for seed in range(10):
        a = gen_random((3, 4, 5), RngStream(23, seed))
        stacked = fourier_frobenius_norm(to_fourier(a))
        assert frobenius_norm(a) == pytest.approx(stacked / np.sqrt(5), rel=1e-12)


def test_spectral_norm_against_power_iteration():
    a = gen_random((3, 3, 4), RngStream(29))
    oracle = power_iteration_norm(brute_bcirc(a.data))
    assert spectral_norm(a) == pytest.approx(oracle, rel=1e-10)


def test_generator_determinism():
    for maker in (
        lambda r: gen_random((2, 3, 4), r),
        lambda r: gen_symmetric(3, 2, r),
        lambda r: gen_t_psd(2, 3, r),
    ):
        t1 = maker(RngStream(77, 5))
        t2 = maker(RngStream(77, 5))
        assert np.array_equal(t1.data, t2.data)
        t3 = maker(RngStream(77, 6))
        assert not np.array_equal(t1.data, t3.data)


def test_gen_symmetric_exact():
    a = gen_symmetric(4, 3, RngStream(31))
    assert frobenius_norm(a - transpose(a)) == 0.0


@pytest.mark.parametrize("seed", range(100))
def test_gen_t_psd_is_psd(seed):
    a = gen_t_psd(3, 3, RngStream(500, seed))
    assert is_t_psd(a, 1e-10).holds


@pytest.mark.parametrize("seed", range(100))
def test_gen_loewner_pair_orders(seed):
    a, b = gen_loewner_pair(2, 3, RngStream(600, seed))
    assert loewner_ge(a, b).holds
    assert loewner_ge(b, Tensor3.zeros(2, 2, 3)).holds


@pytest.mark.parametrize("seed", range(100))
def test_gen_commuting_pair_commutes(seed):
    a, b = gen_commuting_psd_pair(2, 2, RngStream(700, seed))
    comm = frobenius_norm(t_product(a, b) - t_product(b, a))
    assert comm <= 1e-10 * (1 + frobenius_norm(a) * frobenius_norm(b))
    assert is_t_psd(a, 1e-9).holds and is_t_psd(b, 1e-9).holds


def test_degenerate_dims_are_first_class():
    one = gen_random((1, 1, 1), RngStream(1))
    assert one.shape == (1, 1, 1)
    assert spectral_norm(one) == pytest.approx(abs(one.data[0, 0, 0]), rel=1e-14)
    flat = gen_random((3, 3, 1), RngStream(2))
    assert spectral_norm(flat) == pytest.approx(
        np.linalg.svd(flat.slice(0), compute_uv=False)[0], rel=1e-12
    )


def _norm_member(kind: str, n: int, n3: int, seed: int) -> Tensor3:
    rng = RngStream(seed, 1000 * n + n3)
    if kind == "symmetric":
        return gen_symmetric(n, n3, rng)
    if kind == "psd":
        return gen_t_psd(n, n3, rng)
    return gen_random((n, n + (kind == "wide"), n3), rng)


def _stack(tensors) -> _Stack:
    """The tensors, in order, as the members of one new stack."""
    return _Stack(np.stack([t.data for t in tensors]))


def _fft_norm(data: np.ndarray) -> float:
    """The spectral norm by an oracle that shares no code with the library:
    the largest singular value over all ``n3`` slices of ``np.fft.fft``."""
    return float(np.linalg.svd(np.fft.fft(data, axis=2).transpose(2, 0, 1), compute_uv=False)[:, 0].max())


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 127, 128])
def test_stack_spectral_is_the_half_slice_max(n3):
    # the largest singular value over slices 0..n3//2, whose conjugates are
    # the rest: within roundoff of the max over all n3 slices
    for n in range(1, 9):
        for kind in ("random", "wide", "symmetric", "psd"):
            members = [_norm_member(kind, n, n3, seed) for seed in range(3)]
            x = _stack(members)
            half = np.linalg.svd(x.half_slices(), compute_uv=False)[..., 0].max(axis=1)
            assert np.array(x.spectral()).tobytes() == half.tobytes(), (n, kind)
            assert [spectral_norm(t) for t in members] == x.spectral()
            oracle = [_fft_norm(t.data) for t in members]
            assert np.allclose(x.spectral(), oracle, rtol=1e-13, atol=0), (n, kind)


def _cartesian_members(n: int, n3: int, part: str) -> list:
    """Three ``(A, B)`` pairs of ``n x (n + 1) x n3`` tensors; ``part`` names
    one that is zero, if any."""
    pairs = []
    for seed in range(3):
        a, b = (gen_random((n, n + 1, n3), RngStream(seed, 100 * n3 + 10 * n + s)) for s in (0, 1))
        zero = Tensor3.zeros(n, n + 1, n3)
        pairs.append((zero if part == "real" else a, zero if part == "imaginary" else b))
    return pairs


@pytest.mark.parametrize("part", ["none", "imaginary", "real"], ids=lambda p: f"zero-{p}")
@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 127, 128])
def test_cartesian_norms_match_an_all_slice_fft_oracle(n3, part):
    # the norms of T = A + iB from the half slices of A and B: slice n3 - k
    # of T is conj(A_k - i B_k), so no slice of T is missed
    for n in (1, 3, 5):
        pairs = _cartesian_members(n, n3, part)
        x, y = _stack([a for a, _ in pairs]), _stack([b for _, b in pairs])
        fro, spec = x.cartesian_norms(y)
        for (a, b), f, s in zip(pairs, fro, spec):
            t = ComplexTensor3.from_parts(a, b)
            assert spectral_norm(t) == s  # the b = 1 case, bit for bit
            assert s == pytest.approx(_fft_norm(t.data), rel=1e-13, abs=0), (n, part)
            assert f == frobenius_norm(t) == pytest.approx(np.linalg.norm(t.data), rel=1e-13, abs=0)


def test_complex_spectral_norm_takes_its_parts_half_slices(monkeypatch):
    # one real forward transform of each part, and one singular-value SVD of
    # A_k + i B_k over the 5 half slices and A_k - i B_k over the 3 of them
    # with a distinct conjugate partner: 8 slices, as many as T has
    t = ComplexTensor3.from_parts(*(gen_random((3, 3, 8), RngStream(21, s)) for s in (0, 1)))
    calls = _count_forward(monkeypatch)
    svds = _count_singular_value_svds(monkeypatch)
    spectral_norm(t)
    assert calls == [(1, 3, 3, 8)] * 2
    assert svds == [(1, 8, 3, 3)]


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 127, 128])
def test_half_slices_view_exactly_real_self_conjugate_slices(n3):
    # the stack makes each member's self-conjugate slices real once, where
    # it keeps its slices; half_slices() is a read-only view of them
    x = _stack([gen_random((3, 2, n3), RngStream(19, seed)) for seed in range(3)])
    half = x.half_slices()
    assert half.shape == (3, n3 // 2 + 1, 3, 2)
    assert np.shares_memory(half, x.slices) and not half.flags.writeable
    imag = x.slices.imag[:, [0, n3 // 2] if n3 % 2 == 0 else [0]]
    assert (imag == 0.0).all() and not np.signbit(imag).any()


@pytest.mark.parametrize("n3", [3, 4, 5, 64, 127])
def test_upper_slices_reach_no_svd_reader(n3):
    # slices n3//2+1.. are the conjugates of the half slices: garbage there
    # leaves the spectral norm and the inverse bit for bit as they are
    members = [gen_t_psd(3, n3, RngStream(9, seed)) for seed in range(2)]
    x = _stack(members)
    garbled = x.slices.copy()
    garbled[:, n3 // 2 + 1:] = 1e3 * np.random.default_rng(n3).normal(size=garbled[:, n3 // 2 + 1:].shape)
    y = _Stack(x.data)
    y._slices = garbled
    assert y.spectral() == x.spectral()
    assert _t_inverse(y).data.tobytes() == _t_inverse(x).data.tobytes()


def test_half_spectrum_svds_at_8x8x256(monkeypatch):
    # spectral() and a well-conditioned t_inverse take one SVD of the 129
    # half slices each
    seen, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        seen.append(math.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    spectral_norm(gen_random((8, 8, 256), RngStream(5)))
    assert seen == [129]
    seen.clear()
    t_inverse(gen_t_psd(8, 256, RngStream(6)))
    assert seen == [129]


def _count_singular_value_svds(monkeypatch) -> list:
    """The shapes handed to ``np.linalg.svd`` for singular values alone."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_tensor_takes_one_singular_value_svd_for_every_call(monkeypatch):
    # t_inverse's check and spectral_norm read the singular values the
    # tensor's stack keeps: one SVD of its 5 half slices for three rounds
    a = gen_random((4, 4, 8), RngStream(17))
    fresh = (t_inverse(Tensor3(a.data)).data.tobytes(), spectral_norm(Tensor3(a.data)))
    calls = _count_singular_value_svds(monkeypatch)
    for _ in range(3):
        assert (t_inverse(a).data.tobytes(), spectral_norm(a)) == fresh
    assert calls == [(1, 5, 4, 4)]


def test_kept_singular_values_are_read_only_and_a_fresh_svd():
    x = _stack([gen_random((3, 4, 7), RngStream(18, seed)) for seed in range(2)])
    sv = x.singular_values()
    assert sv is x.singular_values() and sv.shape == (2, 4, 3)
    assert not sv.flags.writeable
    with pytest.raises(ValueError):
        sv[0, 0, 0] = 1.0
    assert sv.tobytes() == np.linalg.svd(x.half_slices(), compute_uv=False).tobytes()


def _inverse_error(a: Tensor3) -> tuple:
    with pytest.raises(SingularTensorError) as info:
        t_inverse(a)
    return info.value.slice_index, info.value.condition, str(info.value)


def test_singular_tensor_raises_the_same_error_after_spectral_norm():
    # Fourier slice 0 (the sum of the frontal slices) is rank one
    d = gen_random((3, 3, 4), RngStream(19)).data.copy()
    d[:, :, 0] += np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5]) - d.sum(axis=2)
    alone = _inverse_error(Tensor3(d))
    assert alone[0] == 0
    a = Tensor3(d)
    spectral_norm(a)
    assert _inverse_error(a) == alone
    assert _inverse_error(a) == alone


def test_complex_spectral_norm_finds_the_max_in_the_last_slice():
    # a complex tensor has no conjugate pairs: all n3 slices are searched
    n, n3 = 3, 6
    rng = np.random.default_rng(7)
    slices = rng.normal(size=(n3, n, n)) + 1j * rng.normal(size=(n3, n, n))
    slices[n3 - 1] *= 10.0
    t = ComplexTensor3(np.fft.ifft(slices.transpose(1, 2, 0), axis=2))
    oracle = np.linalg.svd(np.fft.fft(t.data, axis=2).transpose(2, 0, 1), compute_uv=False)[:, 0]
    assert int(np.argmax(oracle)) == n3 - 1
    assert spectral_norm(t) == pytest.approx(oracle.max(), rel=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    # the assignment solver is imported on first use, not with the package
    code = "import sys, ttensor; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert "scipy.optimize" not in out.stdout


def test_campaigns_leave_scipy_optimize_unloaded():
    # real spectra are paired by sorting, so no campaign and no matching of a
    # symmetric pair loads the assignment solver
    code = (
        "import sys, ttensor as tt\n"
        "for tid in tt.THEOREM_IDS:\n"
        "    tt.run_campaign(tid, n=3, n3=4, trials=2, seed=0)\n"
        "a, b = (tt.gen_symmetric(3, 4, tt.RngStream(s)) for s in (1, 2))\n"
        "tt.hoffman_wielandt(a, b)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert "scipy.optimize" not in out.stdout
