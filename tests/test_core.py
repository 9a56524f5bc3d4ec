"""Tensor storage, structural operations, norms, and generators."""

import copy
import math
import pickle
import subprocess
import sys
import threading
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
from ttensor import core
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
    """Each call on a fresh tensor of ``a``'s entries; the store is emptied
    after them, so a run on ``a`` computes what it keeps."""
    out = [f(Tensor3(a.data)) for f in calls]
    core._KEPT.clear()
    return out


def test_tensor_is_transformed_once_for_every_call(kernels):
    a = gen_random((3, 3, 8), RngStream(11))
    assert _Stack.of(a) is _Stack.of(a)
    fresh = _on_fresh(a, _FOURIER_CALLS)
    kernels.clear()
    assert _on(a, _FOURIER_CALLS) == fresh
    assert kernels.shapes("_forward") == [(1, 3, 3, 8)]
    assert _on(a, _FOURIER_CALLS) == fresh
    assert kernels.count("_forward") == (1,)


def test_psd_tensor_is_solved_once_for_every_call(kernels):
    a = gen_t_psd(3, 6, RngStream(12))
    fresh = _on_fresh(a, _SPECTRAL_CALLS)
    kernels.clear()
    assert _on(a, _SPECTRAL_CALLS) == fresh
    assert kernels.sizes("_jacobi") == [6 // 2 + 1]  # the half slices of a, in one call
    assert _on(a, _SPECTRAL_CALLS) == fresh
    assert kernels.count("_jacobi") == (1,)


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


def test_cat_carries_the_kept_slices(kernels):
    # a cat of stacks that hold their slices transforms nothing, and its
    # slices are bit for bit those of a fresh transform
    a, b = gen_symmetric(3, 8, RngStream(15)), gen_symmetric(3, 8, RngStream(16))
    x, y = _Stack.of(a), _Stack.of(b)
    x.slices, y.slices  # each transformed once and kept
    kernels.clear()
    both = x.cat(y)
    assert kernels.count("_forward") == (0,) and not both.slices.flags.writeable
    assert both.slices.tobytes() == _Stack(both.data).slices.tobytes()
    # public hoffman_wielandt of fresh tensors transforms A and B once (its
    # normality gate reads their half slices; no transpose is transformed),
    # then reads the spectra of A and B's cat
    kernels.clear()
    core._KEPT.clear()
    hoffman_wielandt(Tensor3(a.data), Tensor3(b.data))
    assert sum(kernels.sizes("_forward")) == 2


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


def test_library_stack_solve_takes_no_hermitian_residual(monkeypatch, kernels):
    # a stack's half slices are exactly Hermitian by construction, so its
    # solve hands the kernel their own norm and takes no Hermitian residual
    # and no norm in eigensolvers; only hermitian_eig, for matrices from
    # outside the library, takes its input's norm (for its bound and the
    # threshold alike) and its residual, one call each
    norms, frobenius = [], eigensolvers._frobenius
    monkeypatch.setattr(eigensolvers, "_frobenius", lambda d: norms.append(len(d)) or frobenius(d))
    a, b = gen_loewner_pair(3, 6, RngStream(25))
    loewner_ge(a, b)
    t_power(a, 0.5)
    hoffman_wielandt(gen_symmetric(3, 6, RngStream(26)), gen_symmetric(3, 6, RngStream(27)))
    assert kernels.sizes("_jacobi") == [4, 4, 8] and norms == []
    kernels.clear()
    halves = _Stack.of(a).halves()
    assert np.array_equal(halves, eigensolvers._herm_t(halves))  # exactly Hermitian
    alone, kept = eigensolvers.hermitian_eig(halves), _Stack.of(a).spectra()
    assert np.array_equal(alone.values, kept.values) and np.array_equal(alone.vectors, kept.vectors)
    assert kernels.sizes("_jacobi") == [len(halves)] and norms == [len(halves)] * 2


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


def _stream_bytes(rng: RngStream) -> bytes:
    return rng.generator().bytes(64)


def test_rng_stream_keeps_every_bit_of_its_key():
    # the key reaches Philox as uint64, not through float64: keys at or above
    # 2^63, negative keys (taken modulo 2^64) and numpy integers keep their bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = _stream_bytes(RngStream(0))
        assert _stream_bytes(RngStream(-1)) != zero
        assert _stream_bytes(RngStream(2**64 - 1)) != zero
        assert _stream_bytes(RngStream(-1)) == _stream_bytes(RngStream(2**64 - 1))
        assert _stream_bytes(RngStream(2**63)) != _stream_bytes(RngStream(2**63 + 1))
        assert _stream_bytes(RngStream(5, -1)) != _stream_bytes(RngStream(5, 0))
        assert _stream_bytes(RngStream(np.int64(7), np.uint64(2))) == _stream_bytes(RngStream(7, 2))
    # keys below 2^63 draw what a key list always drew
    assert _stream_bytes(RngStream(5, 3)) == np.random.Generator(np.random.Philox(key=[5, 3])).bytes(64)


def test_rng_stream_refuses_a_key_that_is_not_an_integer():
    # a bad seed or stream is refused where it is given, naming the field,
    # not when a generator is first made from it
    for bad in (2.5, "1", None, 3.0):
        with pytest.raises(TypeError, match=r"^RngStream seed must be an integer, got "):
            RngStream(bad)
        with pytest.raises(TypeError, match=r"^RngStream stream must be an integer, got "):
            RngStream(0, bad)
    assert RngStream(np.int64(7), np.uint64(2)) == RngStream(7, 2)


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


@pytest.mark.parametrize("delta", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "generator", [gen_t_psd, gen_loewner_pair, gen_commuting_psd_pair],
    ids=["gen_t_psd", "gen_loewner_pair", "gen_commuting_psd_pair"],
)
def test_psd_generators_refuse_a_delta_that_is_not_a_finite_number_at_least_0(generator, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=r"^delta must be a finite number >= 0, got"):
            generator(2, 3, RngStream(32), delta=delta)


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


def test_complex_spectral_norm_takes_its_parts_half_slices(kernels):
    # one real forward transform of each part, and one singular-value SVD of
    # A_k + i B_k over the 5 half slices and A_k - i B_k over the 3 of them
    # with a distinct conjugate partner: 8 slices, as many as T has
    t = ComplexTensor3.from_parts(*(gen_random((3, 3, 8), RngStream(21, s)) for s in (0, 1)))
    kernels.clear()
    spectral_norm(t)
    assert kernels.shapes("_forward") == [(1, 3, 3, 8)] * 2
    assert kernels.singular_value_shapes() == [(1, 8, 3, 3)]


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
    expected = (x.spectral(), x.inverse().data.tobytes())
    core._KEPT.clear()  # so y computes both from its own slices, adopting none of x's
    y = _Stack(x.data)
    y._held["slices"] = garbled
    assert (y.spectral(), y.inverse().data.tobytes()) == expected


def test_half_spectrum_svds_at_8x8x256(kernels):
    # spectral() and a well-conditioned t_inverse take one SVD of the 129
    # half slices each
    def slices_per_svd():
        return [math.prod(shape[:-2]) for shape in kernels.shapes("svd")]

    spectral_norm(gen_random((8, 8, 256), RngStream(5)))
    assert slices_per_svd() == [129]
    kernels.clear()
    t_inverse(gen_t_psd(8, 256, RngStream(6)))
    assert slices_per_svd() == [129]


def test_tensor_takes_one_singular_value_svd_for_every_call(kernels):
    # t_inverse's check and spectral_norm read the singular values the
    # tensor's stack keeps: one SVD of its 5 half slices for three rounds
    a = gen_random((4, 4, 8), RngStream(17))
    fresh = (t_inverse(Tensor3(a.data)).data.tobytes(), spectral_norm(Tensor3(a.data)))
    core._KEPT.clear()
    kernels.clear()
    for _ in range(3):
        assert (t_inverse(a).data.tobytes(), spectral_norm(a)) == fresh
    assert kernels.singular_value_shapes() == [(1, 5, 4, 4)]


def test_kept_singular_values_are_read_only_and_a_fresh_svd():
    x = _stack([gen_random((3, 4, 7), RngStream(18, seed)) for seed in range(2)])
    sv = x.singular_values()
    assert sv is x.singular_values() and sv.shape == (2, 4, 3)
    assert not sv.flags.writeable
    with pytest.raises(ValueError):
        sv[0, 0, 0] = 1.0
    assert sv.tobytes() == np.linalg.svd(x.half_slices(), compute_uv=False).tobytes()


def _keyed(value: float):
    """The store key of a one-member 4x4x4 stack of ``value``: 512 bytes."""
    return _Stack(np.full((1, 4, 4, 4), value)).key


def test_store_evicts_the_least_recently_used_entry_past_its_bound():
    store = core._Store(3 * 1024)  # three entries of a 512-byte key and value
    keys = [_keyed(v) for v in range(4)]
    for k in keys[:3]:
        store.put(k, "slices", np.zeros(64))
    assert store.size == 3 * 1024
    assert store.get(keys[0], "slices") is not None  # now the most recently used
    store.put(keys[3], "slices", np.zeros(64))
    assert store.size == 3 * 1024
    assert store.get(keys[1], "slices") is None
    assert all(store.get(k, "slices") is not None for k in (keys[0], keys[2], keys[3]))
    store.clear()
    assert store.size == 0 and store.get(keys[0], "slices") is None


def test_store_keeps_only_what_fits_and_freezes_it():
    store = core._Store(1024)
    k, value = _keyed(1.0), np.zeros(64)
    store.put(k, "singular", value)
    assert not value.flags.writeable and store.get(k, "singular") is value
    store.put(_keyed(2.0), "slices", np.zeros(128))  # 512 + 1024 bytes: over the bound alone
    assert store.get(_keyed(2.0), "slices") is None and store.get(k, "singular") is value
    store.put(k, "spectra", np.zeros(1))  # the entry would hold 1032 bytes
    assert store.get(k, "spectra") is None and store.size == 1024
    # keys compare exact bytes: the zeros' signs count
    assert _keyed(1.0) == k and _keyed(0.0) != _keyed(-0.0)
    # data alone over the default bound: one 128 x 128 slice more than fits
    over = core._KEPT_BYTES // (128 * 128 * 8) + 1
    assert _Stack(np.zeros((1, 128, 128, over))).key is None


def test_store_accounting_survives_concurrent_callers():
    # more threads than cores look up and store 16 keys in a store that
    # holds 8 entries; a lost update would leave its byte count off the
    # entries it holds
    store, keys, errors = core._Store(8 * 1024), [_keyed(v) for v in range(16)], []

    def caller(seed):
        try:
            for i in np.random.default_rng(seed).integers(0, len(keys), 300):
                if store.get(keys[i], "slices") is None:
                    store.put(keys[i], "slices", np.zeros(64))
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert store.size == sum(size for size, _ in store._entries.values()) == 8 * 1024


def test_stacks_of_equal_bytes_share_what_they_keep():
    a = gen_t_psd(3, 5, RngStream(20))
    x, y = _Stack(a.data[None]), _Stack(a.data[None].copy())
    assert x.slices is y.slices and x.singular_values() is y.singular_values()
    assert x.spectra() is y.spectra() and x.eigenvalues() is y.eigenvalues()
    assert not x.eigenvalues().flags.writeable


def test_a_tensor_is_inverted_once_however_often_it_is_inverted(kernels):
    a = gen_random((3, 3, 6), RngStream(23))
    first, again = t_inverse(a), t_inverse(a)
    assert first.data.tobytes() == again.data.tobytes()
    assert kernels.count("_inverse", "inv") == (1, 1)


def test_equal_bytes_adopt_the_stored_inverse(kernels):
    a = gen_t_psd(3, 5, RngStream(24))
    fresh = t_inverse(Tensor3(a.data)).data.tobytes()
    kernels.clear()
    adopted = t_inverse(Tensor3(a.data.copy())).data.tobytes()
    assert kernels.count("_inverse", "inv", "svd") == (0, 0, 0)
    core._KEPT.clear()
    assert adopted == fresh == t_inverse(Tensor3(a.data)).data.tobytes()


def test_a_singular_tensor_raises_on_every_inversion_and_keeps_no_inverse():
    d = gen_random((3, 3, 4), RngStream(25)).data.copy()
    d[2] = d[0] + d[1]  # every Fourier slice has rank 2
    a = Tensor3(d)
    for _ in range(2):
        with pytest.raises(SingularTensorError):
            t_inverse(a)
    x = _Stack.of(a)
    assert "inverse" not in x._held and core._KEPT.get(x.key, "inverse") is None
    assert "singular" in x._held  # what the check read is kept


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
    core._KEPT.clear()  # so spectral_norm takes the SVD that t_inverse then reads
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
