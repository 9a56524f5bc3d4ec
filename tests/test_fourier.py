"""Block-circulant unfolding and the DFT block diagonalization."""

import hashlib
import multiprocessing
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

from ttensor import (
    ComplexTensor3,
    ConjugateSymmetryError,
    FourierSlices,
    RngStream,
    ShapeMismatchError,
    Tensor3,
    bcirc,
    fold,
    from_fourier,
    frobenius_norm,
    gen_random,
    identity,
    t_product,
    to_fourier,
    transpose,
    unfold,
)
from oracles import (
    brute_bcirc,
    conjugate_pair_worst_reference,
    forward_dft_reference,
    inverse_dft_slice_major,
)
from ttensor import fourier
from ttensor.fourier import (
    _KERNEL_CACHE_SIZE,
    _SYMMETRY_TOL,
    _forward,
    _half_size,
    _inverse,
    _mirror_half,
    _real_dft_kernel,
    dft_matrix,
)


def test_bcirc_n3_1_is_the_slice():
    a = gen_random((3, 2, 1), RngStream(3))
    assert np.array_equal(bcirc(a).matrix, a.slice(0))


def test_bcirc_2x2x2_block_layout():
    a = gen_random((2, 2, 2), RngStream(4))
    a1, a2 = a.slice(0), a.slice(1)
    expected = np.block([[a1, a2], [a2, a1]])
    assert np.array_equal(bcirc(a).matrix, expected)


def test_bcirc_matches_brute_force():
    a = gen_random((3, 2, 5), RngStream(6))
    assert np.array_equal(bcirc(a).matrix, brute_bcirc(a.data))


def test_bcirc_eigenvalues_are_union_of_slice_eigenvalues():
    from scipy.optimize import linear_sum_assignment

    a = gen_random((3, 3, 4), RngStream(8))
    big = np.linalg.eigvals(bcirc(a).matrix)
    slicewise = np.concatenate([np.linalg.eigvals(s) for s in to_fourier(a).slices])
    cost = np.abs(big[:, None] - slicewise[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8


def test_unfold_identity_and_round_trip():
    eye = identity(2, 2)
    assert np.array_equal(unfold(eye), np.vstack([np.eye(2), np.zeros((2, 2))]))
    a = gen_random((3, 2, 5), RngStream(9))
    assert np.array_equal(fold(unfold(a), 3, 5).data, a.data)
    with pytest.raises(ShapeMismatchError):
        fold(np.zeros((7, 2)), 3, 2)


def test_t_product_equals_fold_bcirc_unfold():
    for seed in range(5):
        a = gen_random((3, 2, 4), RngStream(10, seed))
        b = gen_random((2, 5, 4), RngStream(11, seed))
        via_fourier = t_product(a, b)
        via_bcirc = fold(brute_bcirc(a.data) @ unfold(b), 3, 4)
        diff = frobenius_norm(via_fourier - via_bcirc)
        assert diff <= 1e-12 * (1 + frobenius_norm(via_fourier))


def test_to_fourier_n3_1_is_the_slice():
    a = gen_random((2, 3, 1), RngStream(12))
    fs = to_fourier(a)
    assert fs.n3 == 1 and np.abs(fs.slices[0] - a.slice(0)).max() < 1e-15


def test_two_point_transform_by_hand():
    # tube (0, 1): F_2 = [[1, 1], [1, -1]] gives slices (1, -1)
    t = Tensor3.from_flat([0.0, 1.0], 1, 1, 2)
    fs = to_fourier(t)
    assert fs.slices[0][0, 0] == pytest.approx(1.0)
    assert fs.slices[1][0, 0] == pytest.approx(-1.0)
    back = from_fourier(fs)
    assert np.allclose(back.data.ravel(), [0.0, 1.0], atol=1e-15)


def test_dft_block_diagonalizes_bcirc():
    a = gen_random((2, 2, 3), RngStream(13))
    n3 = 3
    jj = np.arange(n3)
    f = np.exp(-2j * np.pi / n3 * np.outer(jj, jj))
    left = np.kron(f, np.eye(2))
    right = np.kron(np.linalg.inv(f), np.eye(2))
    conjugated = left @ bcirc(a).matrix @ right
    fs = to_fourier(a)
    expected = np.zeros_like(conjugated)
    for k in range(n3):
        expected[2 * k:2 * k + 2, 2 * k:2 * k + 2] = fs.slices[k]
    assert np.abs(conjugated - expected).max() < 1e-10


def test_round_trip_and_conjugate_symmetry():
    a = gen_random((3, 3, 4), RngStream(14))
    fs = to_fourier(a)
    assert fs.origin_real
    assert fs.symmetry_residual() < 1e-12
    assert np.abs(from_fourier(fs).data - a.data).max() <= 1e-12


def test_from_fourier_rejects_asymmetric_data():
    # for n3 = 2 the second slice must be real
    bad = FourierSlices.from_list([np.array([[1.0 + 0j]]), np.array([[1j]])], True)
    with pytest.raises(ConjugateSymmetryError) as err:
        from_fourier(bad)
    assert err.value.residual > 0


def test_parseval_transport():
    for seed in range(10):
        a = gen_random((2, 4, 6), RngStream(15, seed))
        stacked_sq = sum(np.linalg.norm(s) ** 2 for s in to_fourier(a).slices)
        assert frobenius_norm(a) ** 2 * 6 == pytest.approx(stacked_sq, rel=1e-12)


def test_fourier_linearity():
    a = gen_random((2, 3, 4), RngStream(16))
    b = gen_random((2, 3, 4), RngStream(17))
    fa, fb, fsum = to_fourier(a), to_fourier(b), to_fourier(a + b)
    for k in range(4):
        assert np.abs(fsum.slices[k] - fa.slices[k] - fb.slices[k]).max() < 1e-12


def test_bcirc_is_multiplicative():
    a = gen_random((2, 3, 3), RngStream(18))
    b = gen_random((3, 2, 3), RngStream(19))
    lhs = bcirc(t_product(a, b)).matrix
    rhs = bcirc(a).matrix @ bcirc(b).matrix
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


def test_transpose_transports_to_conjugate_slices():
    a = gen_random((3, 3, 4), RngStream(20))
    ft = to_fourier(transpose(a))
    fa = to_fourier(a)
    for k in range(4):
        assert np.abs(ft.slices[k] - fa.slices[k].conj().T).max() < 1e-12


def test_fourier_slices_is_one_read_only_stack():
    a = gen_random((2, 3, 4), RngStream(21))
    stack = np.array(to_fourier(a).slices)
    for given in (tuple(stack), list(stack), stack, stack.real):
        fs = FourierSlices(2, 3, 4, given, True)
        assert isinstance(fs.slices, np.ndarray) and fs.slices.dtype == np.complex128
        assert fs.slices.shape == (4, 2, 3) and fs.slices.flags.c_contiguous
        assert not fs.slices.flags.writeable
        assert np.array_equal(fs.slices, np.asarray(given))
    assert stack.flags.writeable  # the caller's array is not frozen
    assert np.array_equal(fs.half(), fs.slices[:3])


@pytest.mark.parametrize(
    "dims, given",
    [
        ((2, 3, 5), np.zeros((4, 2, 3))),  # wrong n3
        ((3, 2, 4), np.zeros((4, 2, 3))),  # n1, n2 swapped
        ((2, 3, 4), np.zeros((2, 3, 4))),  # tube axis last
        ((2, 2, 2), (np.eye(2), np.eye(3))),  # ragged slices
    ],
)
def test_fourier_slices_rejects_mismatched_shapes(dims, given):
    with pytest.raises(ShapeMismatchError):
        FourierSlices(*dims, given, True)


def _exactly_conjugate_slices(rng, n1, n2, n3, zeros=False):
    """Slices with slice n3 - i equal to conj(slice i) bit for bit, and the
    self-conjugate slices exactly real; with ``zeros``, about half the real
    and imaginary parts are exact zeros of either sign."""
    parts = rng.normal(size=(2, n3, n1, n2))
    if zeros:
        signed_zeros = np.where(rng.random(parts.shape) < 0.5, -0.0, 0.0)
        parts = np.where(rng.random(parts.shape) < 0.5, signed_zeros, parts)
    s = np.empty((n3, n1, n2), dtype=complex)
    s.real, s.imag = parts
    s[0] = s[0].real
    if n3 % 2 == 0:
        s[n3 // 2] = s[n3 // 2].real
    for i in range(1, (n3 + 1) // 2):
        s[n3 - i] = s[i].conj()
    return s


def _check_symmetry_parity(slices):
    residual, i, j = conjugate_pair_worst_reference(slices)
    fs = FourierSlices(slices.shape[1], slices.shape[2], len(slices), slices, True)
    assert fs.symmetry_residual() == residual
    tol = _SYMMETRY_TOL * (1.0 + float(np.abs(slices).max()))
    if residual > tol:
        with pytest.raises(ConjugateSymmetryError) as err:
            from_fourier(fs)
        e = err.value
        assert (e.slice_a, e.slice_b, e.residual, e.tolerance) == (i, j, residual, tol)
    else:
        from_fourier(fs)


@pytest.mark.parametrize("n3", [1, 2, 3, 4])
def test_symmetry_check_matches_pairwise_reference(n3):
    rng = np.random.default_rng(60 + n3)
    _check_symmetry_parity(to_fourier(gen_random((2, 3, n3), RngStream(22, n3))).slices)
    for trial in range(40):
        s = _exactly_conjugate_slices(rng, 2, 3, n3)
        for k in rng.choice(n3, size=int(rng.integers(1, n3 + 1)), replace=False):
            s[k, rng.integers(2), rng.integers(3)] += 10.0 ** rng.integers(-12, 0) * (1 + 1j)
        _check_symmetry_parity(s)


@pytest.mark.parametrize("n3", [1, 2, 3, 4])
def test_symmetry_check_ties_go_to_lower_index(n3):
    s = np.zeros((n3, 2, 2), dtype=complex)
    s[0, 0, 0] = 2e-3j  # slice 0 scores its imaginary part
    for i in range(1, n3 // 2 + 1):
        s[n3 - i, 1, 1] = 1e-3j if n3 - i == i else 2e-3j  # a self-conjugate slice scores twice
    _check_symmetry_parity(s)
    with pytest.raises(ConjugateSymmetryError) as err:
        from_fourier(FourierSlices(2, 2, n3, s, True))
    assert (err.value.slice_a, err.value.slice_b, err.value.residual) == (0, 0, 2e-3)
    s[0] = 0.0
    if n3 > 1:
        with pytest.raises(ConjugateSymmetryError) as err:
            from_fourier(FourierSlices(2, 2, n3, s, True))
        assert (err.value.slice_a, err.value.slice_b) == (1, n3 - 1)


@pytest.mark.parametrize("n3", [1, 2, 5, 8])
def test_half_spectrum_mirrors_back_to_the_tensor(n3):
    a = gen_random((3, 2, n3), RngStream(23, n3))
    half = to_fourier(a).half()
    assert len(half) == n3 // 2 + 1 == _half_size(n3)
    back = from_fourier(FourierSlices(3, 2, n3, _mirror_half(half[None], n3)[0], True))
    assert np.abs(back.data - a.data).max() <= 1e-12


def test_real_kernel_is_a_read_only_view_of_the_cached_dft():
    f = dft_matrix(6)
    kernel = _real_dft_kernel(6)
    assert kernel.shape == (6, 6, 2) and kernel.dtype == np.float64
    assert not kernel.flags.writeable
    assert np.shares_memory(kernel, f)  # cached with F: no second buffer
    assert kernel.flags.c_contiguous  # t outermost: einsum sums in t order
    assert f.tobytes() == np.ascontiguousarray(f.T).tobytes()  # F is bitwise symmetric
    assert np.array_equal(kernel[..., 0], f.real.T) and np.array_equal(kernel[..., 1], f.imag.T)


def test_dft_matrix_is_cached_read_only():
    f = dft_matrix(4)
    assert f is dft_matrix(4)
    with pytest.raises(ValueError):
        f[1, 1] = 0
    assert np.allclose(f, np.fft.fft(np.eye(4)), rtol=0, atol=1e-15)
    # a rejected write leaves every later transform at this length intact
    a = gen_random((2, 3, 4), RngStream(41))
    b = gen_random((3, 2, 4), RngStream(42))
    assert np.abs(from_fourier(to_fourier(a)).data - a.data).max() <= 1e-12
    assert np.abs(t_product(a, identity(3, 4)).data - a.data).max() <= 1e-12
    expected = np.fft.ifft(
        np.fft.fft(a.data, axis=2).transpose(2, 0, 1)
        @ np.fft.fft(b.data, axis=2).transpose(2, 0, 1),
        axis=0,
    ).real.transpose(1, 2, 0)
    assert np.abs(t_product(a, b).data - expected).max() <= 1e-12


def test_kernel_caches_are_bounded():
    for n3 in range(1, 2 * _KERNEL_CACHE_SIZE + 2):
        a = gen_random((2, 2, n3), RngStream(43, n3))
        assert np.abs(from_fourier(to_fourier(a)).data - a.data).max() <= 1e-12
        assert dft_matrix.cache_info().currsize <= _KERNEL_CACHE_SIZE
        assert np.shares_memory(_real_dft_kernel(n3), dft_matrix(n3))
    assert dft_matrix.cache_info().maxsize == _KERNEL_CACHE_SIZE


def test_first_round_trip_keeps_one_kernel_resident():
    # after a first transform pair at a fresh tube length only F stays behind:
    # a second cached kernel (conj(F), or K as its own array) fails the bound
    n3 = 512
    kernel = 16 * n3 * n3
    a = gen_random((8, 8, n3), RngStream(48))
    dft_matrix.cache_clear()
    tracemalloc.start()
    try:
        back = from_fourier(to_fourier(a))
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.data.nbytes == 8 * 8 * n3 * 8
    assert resident <= kernel + 2**20
    # F is exponentiated in place: only the int64 outer(j, j) (half a kernel)
    # lives beside it while it is built; a separate exp output peaks at 2x
    assert peak <= 1.75 * kernel


@pytest.mark.parametrize("n3", [*range(1, 41), 127, 128, 255, 256, 511, 512, 1024])
def test_forward_matches_complex_kernel_bit_for_bit(n3):
    rng = np.random.default_rng(90 + n3)
    for n1, n2 in ((3, 3), (2, 5), *([(8, 8)] if n3 == 1024 else [])):
        data = rng.normal(size=(n1, n2, n3))
        signed_zeros = np.where(rng.random(data.shape) < 0.5, -0.0, 0.0)
        tensors = [
            Tensor3(data),
            Tensor3(np.where(rng.random(data.shape) < 0.5, signed_zeros, data)),
            Tensor3(signed_zeros),
            Tensor3(-np.zeros(data.shape)),
            ComplexTensor3(data + 1j * rng.normal(size=data.shape)),
        ]
        if n1 == n2:
            tensors.append(identity(n1, n3))
        for t in tensors:
            fs = to_fourier(t)
            assert fs.origin_real == isinstance(t, Tensor3)
            want = np.ascontiguousarray(forward_dft_reference(t.data))
            assert fs.slices.tobytes() == want.tobytes()


@pytest.mark.parametrize("n3", [*range(1, 41), 127, 128, 255, 256, 1024])
def test_inverse_matches_slice_major_layout_bit_for_bit(n3):
    rng = np.random.default_rng(80 + n3)
    for n1, n2 in ((3, 3), (2, 5)):
        exact = _exactly_conjugate_slices(rng, n1, n2, n3)
        zeros = _exactly_conjugate_slices(rng, n1, n2, n3, zeros=True)
        rounded = to_fourier(gen_random((n1, n2, n3), RngStream(44, n3))).slices
        for slices in (exact, zeros, rounded):
            got = from_fourier(FourierSlices(n1, n2, n3, slices, True)).data
            want = np.ascontiguousarray(inverse_dft_slice_major(slices))
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# no memo: every call transforms afresh
# ---------------------------------------------------------------------------

def test_transforms_are_read_only_and_repeatable():
    # results are read-only, and a repeated input gives equal results
    a = gen_random((3, 2, 5), RngStream(45))
    fs = to_fourier(a)
    back = from_fourier(fs)
    assert not fs.slices.flags.writeable and not back.data.flags.writeable
    assert np.array_equal(to_fourier(Tensor3(a.data.copy())).slices, fs.slices)
    assert np.array_equal(from_fourier(FourierSlices(3, 2, 5, fs.slices.copy(), True)).data, back.data)


def test_transforms_tell_equal_bytes_apart():
    # tensors holding equal bytes in other types or shapes get their own
    # transforms
    data = np.random.default_rng(46).normal(size=(2, 2, 4))
    tensors = [
        Tensor3(data),
        ComplexTensor3(data.view(complex)),  # (2, 2, 2), the same bytes
        Tensor3(data.reshape(4, 1, 4)),
        Tensor3(data.reshape(2, 4, 2)),
    ]
    assert len({t.data.tobytes() for t in tensors}) == 1
    for t in tensors:
        fs = to_fourier(t)
        assert (fs.n1, fs.n2, fs.n3, fs.origin_real) == (*t.shape, isinstance(t, Tensor3))
        assert np.allclose(fs.slices, forward_dft_reference(t.data), atol=1e-12)
    slices = to_fourier(Tensor3(data.reshape(2, 4, 2))).slices  # (2, 2, 4) slices
    same_bytes = [FourierSlices(2, 4, 2, slices, True),
                  FourierSlices(4, 2, 2, slices.reshape(2, 4, 2), True)]
    for s in same_bytes:
        assert from_fourier(s).shape == (s.n1, s.n2, s.n3)


def test_from_fourier_raises_conjugate_symmetry_error_on_every_call():
    bad = FourierSlices.from_list([np.array([[1.0 + 0j]]), np.array([[1j]])], True)
    for _ in range(3):
        with pytest.raises(ConjugateSymmetryError):
            from_fourier(bad)


def test_transforms_are_not_cached_outside_a_scope():
    a = gen_random((2, 3, 4), RngStream(47))
    fs = to_fourier(a)
    assert to_fourier(a) is not fs
    assert from_fourier(fs) is not from_fourier(fs)


# ---------------------------------------------------------------------------
# large transforms: two blocks of slices on two threads
# ---------------------------------------------------------------------------

# (n3, n, b) = (1023, 8, 64) is left out: 2**32 multiply-adds a transform
_SPLIT_GRID = [
    (n3, n, b)
    for n3 in (1, 2, 3, 4, 5, 8, 17, 127, 128, 1023)
    for n in (1, 3, 8)
    for b in (1, 64)
    if (n3, n, b) != (1023, 8, 64)
]


@pytest.mark.parametrize("n3,n,b", _SPLIT_GRID)
def test_split_transforms_are_the_single_einsum_bit_for_bit(monkeypatch, n3, n, b):
    rng = np.random.default_rng([n3, n, b])
    real = rng.normal(size=(b, n, n, n3))
    cases = [
        (_forward, real),
        (_forward, real + 1j * rng.normal(size=real.shape)),
        (_inverse, _forward(real)),
    ]
    monkeypatch.setattr(fourier, "_SPLIT", False)
    whole = [transform(x) for transform, x in cases]
    monkeypatch.setattr(fourier, "_SPLIT", True)
    monkeypatch.setattr(fourier, "_SPLIT_WORK", 0)
    for (transform, x), want in zip(cases, whole):
        got = transform(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _large_pair(stream):
    # 8x8x256: work 2**22 a transform, above the split threshold
    assert 8 * 8 * 256**2 > fourier._SPLIT_WORK
    return gen_random((8, 8, 256), RngStream(stream, 1)), gen_random((8, 8, 256), RngStream(stream, 2))


def _product_digest(a, b, conn):
    conn.send(hashlib.sha256(t_product(a, b).data.tobytes()).hexdigest())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_forked_child_runs_large_transforms(monkeypatch):
    # the parent's worker thread is running when it forks; the child's split
    # transforms must not wait on that thread, which the child does not have
    monkeypatch.setattr(fourier, "_SPLIT", True)
    a, b = _large_pair(62)
    want = hashlib.sha256(t_product(a, b).data.tobytes()).hexdigest()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_product_digest, args=(a, b, send))
    child.start()
    try:
        assert receive.poll(60), "a split transform hung in a forked child"
        assert receive.recv() == want
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def test_concurrent_callers_get_the_lone_bytes_and_one_worker(monkeypatch):
    monkeypatch.setattr(fourier, "_SPLIT", True)
    a, b = _large_pair(63)
    einsum, counts = np.einsum, []

    def counting_einsum(*args, **kwargs):  # runs on every thread of a split
        counts.append(threading.active_count())
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    start = threading.active_count()
    lone = t_product(a, b).data.tobytes()
    assert counts and max(counts) <= start + 1

    # more callers than cores, switching threads as often as they can
    counts.clear()
    callers = 4
    results = [None] * callers
    ready = threading.Barrier(callers)

    def call(i):
        ready.wait()
        results[i] = t_product(a, b).data.tobytes()

    threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [lone] * callers
    # the callers are the test's own threads: beside them, one worker
    assert counts and max(counts) <= start + callers + 1


def test_busy_worker_leaves_the_caller_the_whole_einsum(monkeypatch):
    # while another split holds the worker, a caller queues nothing on it
    class Refuse:
        def submit(self, *args):
            raise AssertionError("a caller queued a block on a busy worker")

    monkeypatch.setattr(fourier, "_SPLIT", True)
    monkeypatch.setattr(fourier, "_SPLIT_WORK", 0)
    real = np.random.default_rng(64).normal(size=(2, 3, 3, 17))
    cases = [(_forward, real), (_forward, real + 1j * real[::-1]), (_inverse, _forward(real))]
    monkeypatch.setattr(fourier, "_worker", Refuse())
    assert fourier._idle.acquire(blocking=False)
    try:
        got = [transform(x) for transform, x in cases]
    finally:
        fourier._idle.release()
    monkeypatch.setattr(fourier, "_SPLIT", False)
    for (transform, x), g in zip(cases, got):
        assert g.tobytes() == transform(x).tobytes()


# after the main thread returns, concurrent.futures refuses new jobs
_LATE_CALLERS = {
    "thread": "threading.Thread(target=lambda: (time.sleep(0.2), product())).start()",
    "atexit": "atexit.register(product)",
}


@pytest.mark.parametrize("caller", sorted(_LATE_CALLERS))
def test_large_transforms_run_while_the_interpreter_shuts_down(caller):
    code = textwrap.dedent(
        """
        import atexit, hashlib, threading, time
        from ttensor import RngStream, fourier, gen_random, t_product
        fourier._SPLIT = True
        a, b = (gen_random((8, 8, 256), RngStream(64, i)) for i in (1, 2))
        def product():
            print(hashlib.sha256(t_product(a, b).data.tobytes()).hexdigest(), flush=True)
        product()
        """
    ) + _LATE_CALLERS[caller]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stderr == ""
    lines = out.stdout.split()
    assert len(lines) == 2 and lines[0] == lines[1]
