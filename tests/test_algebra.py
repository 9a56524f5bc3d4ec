"""t-product, inverse, predicates, and the semidefinite order."""

import warnings

import numpy as np
import pytest

from ttensor import (
    ComplexTensor3,
    FourierSlices,
    NotSymmetricError,
    RngStream,
    ShapeMismatchError,
    SingularTensorError,
    Tensor3,
    from_fourier,
    frobenius_norm,
    gen_loewner_pair,
    gen_orthogonal,
    gen_random,
    gen_symmetric,
    gen_t_psd,
    identity,
    is_f_diagonal,
    is_normal,
    is_orthogonal,
    is_symmetric,
    is_t_psd,
    loewner_ge,
    power_order_counterexample,
    t_inverse,
    t_product,
    to_fourier,
    transpose,
)
from oracles import brute_bcirc, quadratic_form_min
from ttensor.algebra import PREDICATE_TOL, _off_diagonality
from ttensor.core import _frobenius, _Stack
from ttensor.fourier import _mirror_half

EPS = np.finfo(float).eps


def test_t_product_identity_law():
    a = gen_random((3, 4, 5), RngStream(40))
    assert frobenius_norm(t_product(identity(3, 5), a) - a) < 1e-12


def test_t_product_zero_tail_slices_reduce_to_matrix_product():
    # second slices zero make the unfolding block-diagonal, so squaring acts
    # on the first slice alone
    a, _ = power_order_counterexample()
    sq = t_product(a, a)
    assert np.allclose(sq.slice(0), [[5.0, 3.0], [3.0, 2.0]], atol=1e-13)
    assert np.abs(sq.slice(1)).max() < 1e-13


def test_t_product_shape_errors():
    a = gen_random((2, 3, 2), RngStream(41))
    with pytest.raises(ShapeMismatchError):
        t_product(a, gen_random((2, 2, 2), RngStream(42)))
    with pytest.raises(ShapeMismatchError):
        t_product(a, gen_random((3, 2, 3), RngStream(43)))


def test_t_product_agrees_with_bcirc_route():
    rng_dims = np.random.default_rng(44)
    for trial in range(200):
        n1, n2, n4 = rng_dims.integers(1, 6, size=3)
        n3 = int(rng_dims.integers(1, 7))
        a = gen_random((int(n1), int(n2), n3), RngStream(45, trial))
        b = gen_random((int(n2), int(n4), n3), RngStream(46, trial))
        fast = t_product(a, b)
        slow = brute_bcirc(a.data) @ brute_bcirc(b.data)[:, : int(n4)]
        ref = slow.reshape(n3, int(n1), int(n4)).transpose(1, 2, 0)
        assert np.abs(fast.data - ref).max() <= 1e-10 * (1 + np.abs(ref).max())


def test_n3_1_reduces_to_matrix_multiplication():
    a = gen_random((3, 4, 1), RngStream(47))
    b = gen_random((4, 2, 1), RngStream(48))
    prod = t_product(a, b)
    assert np.abs(prod.slice(0) - a.slice(0) @ b.slice(0)).max() < 1e-13


def test_associativity():
    for trial in range(20):
        a = gen_random((2, 3, 3), RngStream(49, trial))
        b = gen_random((3, 2, 3), RngStream(50, trial))
        c = gen_random((2, 4, 3), RngStream(51, trial))
        left = t_product(t_product(a, b), c)
        right = t_product(a, t_product(b, c))
        assert frobenius_norm(left - right) <= 1e-10 * (1 + frobenius_norm(left))


def test_transpose_antihomomorphism():
    a = gen_random((2, 3, 4), RngStream(52))
    b = gen_random((3, 5, 4), RngStream(53))
    lhs = transpose(t_product(a, b))
    rhs = t_product(transpose(b), transpose(a))
    assert frobenius_norm(lhs - rhs) < 1e-12


def test_t_inverse_identity_and_scaling():
    eye = identity(3, 2)
    assert frobenius_norm(t_inverse(eye) - eye) < 1e-14
    assert frobenius_norm(t_inverse(2.0 * eye) - 0.5 * eye) < 1e-14


@pytest.mark.parametrize("seed", range(100))
def test_t_inverse_residual(seed):
    a = gen_t_psd(3, 3, RngStream(800, seed))
    res = t_product(a, t_inverse(a)) - identity(3, 3)
    assert frobenius_norm(res) <= 1e-8


def _one_ill_conditioned_slice(seed: int, n: int, n3: int, cond: float) -> Tensor3:
    """A real tensor whose Fourier slice 1 (and its conjugate n3 - 1) has
    singular values spread log-evenly from 1 down to ``1 / cond``; the other
    slices are Gaussian."""
    rng = np.random.default_rng(seed)
    h = n3 // 2 + 1
    half = rng.normal(size=(h, n, n)) + 1j * rng.normal(size=(h, n, n))
    half[0], half[n3 // 2] = half[0].real, half[n3 // 2].real
    u, _, vh = np.linalg.svd(half[1])
    half[1] = (u * np.logspace(0, -np.log10(cond), n)) @ vh
    return from_fourier(FourierSlices(n, n, n3, _mirror_half(half[None], n3)[0], True))


def test_t_inverse_of_an_ill_conditioned_slice_is_accurate():
    # inv amplifies the transform's roundoff asymmetry between conjugate
    # slices by the slice condition; the inverse is still as accurate as a
    # backward-stable slicewise inverse allows, so nothing may reject it
    n, n3 = 4, 8
    for seed in range(10):
        a = _one_ill_conditioned_slice(seed, n, n3, 1e8)
        sv = np.linalg.svd(to_fourier(a).slices, compute_uv=False)
        kappa = sv.max() / sv.min()  # of the block-circulant operator
        assert kappa > 1e8
        x = t_inverse(a)
        residual = frobenius_norm(t_product(a, x) - identity(n, n3))
        assert residual <= (n + n3) * EPS * kappa, seed


def test_t_inverse_singular_reports_slice():
    # first Fourier slice (sum of frontal slices) is singular by construction
    data = np.zeros((2, 2, 2))
    data[:, :, 0] = [[1.0, 0.0], [0.0, 1.0]]
    data[:, :, 1] = [[-1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(SingularTensorError) as err:
        t_inverse(Tensor3(data))
    assert err.value.slice_index == 0
    assert err.value.condition > 1e12


def test_t_inverse_zero_tensor_reports_first_slice_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularTensorError) as err:
            t_inverse(Tensor3(np.zeros((2, 2, 3))))
    assert err.value.slice_index == 0
    assert err.value.condition == np.inf


def test_t_inverse_reports_a_singular_conjugate_pair_by_its_half_slice():
    # slices 2 and n3 - 2 = 3 of a real tensor at n3 = 5 are singular: the
    # report names half slice 2 and its condition
    n, n3 = 3, 5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        half = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        half[0] = half[0].real
        half[2, :, -1] = half[2, :, :-1] @ rng.normal(size=n - 1)
        a = from_fourier(FourierSlices(n, n, n3, _mirror_half(half[None], n3)[0], True))
        sv = np.linalg.svd(to_fourier(a).half(), compute_uv=False)
        ratio = sv[:, -1] / sv[:, 0]
        assert int(np.argmin(ratio)) == 2
        with pytest.raises(SingularTensorError) as err:
            t_inverse(a)
        assert (err.value.slice_index, err.value.condition) == (2, 1.0 / ratio[2])


def test_predicates_on_identity():
    eye = identity(3, 4)
    assert is_symmetric(eye) and is_orthogonal(eye) and is_normal(eye) and is_f_diagonal(eye)


def test_predicates_reject_non_square():
    rect = gen_random((2, 3, 2), RngStream(54))
    verdict = is_symmetric(rect)
    assert not verdict and "square" in verdict.reason


def test_symmetric_implies_normal():
    a = gen_symmetric(3, 4, RngStream(55))
    assert is_symmetric(a) and is_normal(a)
    assert not is_symmetric(gen_random((3, 3, 4), RngStream(56)))


def _upper_triangular_tubes(scale: float) -> Tensor3:
    """Constant tubes ``2, 0.01; 0, 1`` times ``scale``: not normal."""
    d = np.zeros((2, 2, 8))
    d[0, 0], d[0, 1], d[1, 1] = 2.0 * scale, 0.01 * scale, scale
    return Tensor3(d)


def test_is_normal_where_the_grams_overflow():
    # past ~1e154 the slice Grams overflow: the residual read NaN, so this
    # tensor read normal at 1e153, and the squared norm raised OverflowError
    assert is_normal(_upper_triangular_tubes(1.0)).reason == "normality residual 3.200e-01"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_normal(_upper_triangular_tubes(1e153)).reason == "normality residual 3.200e+305"
        assert not is_normal(_upper_triangular_tubes(1e154))
        assert is_normal(Tensor3(np.ldexp(gen_symmetric(3, 4, RngStream(63)).data, 1000)))


def _gram_residuals_by_t_products(a: Tensor3) -> list:
    """``||a^T a - I||_F``, ``||a a^T - I||_F`` and ``||a^T a - a a^T||_F``
    from their definitions: t-products, inverted to the spatial domain."""
    at, eye = transpose(a), identity(a.n1, a.n3)
    left, right = t_product(at, a), t_product(a, at)
    return [frobenius_norm(m) for m in (left - eye, right - eye, left - right)]


@pytest.mark.parametrize("seed", range(12))
def test_gate_residuals_match_their_t_product_definitions(seed):
    n, n3 = 2 + seed % 4, (1, 2, 5, 8)[seed // 3]
    q = gen_orthogonal(n, n3, RngStream(57, seed))
    cases = (  # tensor, orthogonal, normal
        (q, True, True),
        (q + 1e-6 * gen_random((n, n, n3), RngStream(58, seed)), False, False),
        (gen_symmetric(n, n3, RngStream(59, seed)), False, True),
        (gen_random((n, n, n3), RngStream(60, seed)), False, False),
    )
    for a, orthogonal, normal in cases:
        expected = _gram_residuals_by_t_products(a)
        got = [r for (r,) in _Stack.of(a).gram_residuals()]
        scale = 1.0 + frobenius_norm(a) ** 2
        assert np.abs(np.subtract(got, expected)).max() <= 1e-12 * scale
        assert bool(is_orthogonal(a)) == orthogonal == (max(expected[:2]) <= PREDICATE_TOL)
        assert bool(is_normal(a)) == normal == (expected[2] <= PREDICATE_TOL * scale)


def test_f_diagonal_predicate():
    data = np.zeros((3, 3, 2))
    data[np.arange(3), np.arange(3), :] = np.random.default_rng(0).normal(size=(3, 2))
    assert is_f_diagonal(Tensor3(data))
    data[0, 1, 0] = 0.5
    assert not is_f_diagonal(Tensor3(data))


def test_off_diagonal_mass_is_the_norm_of_the_masked_data():
    # the stacked f-diagonal predicate takes the masked data's norm with the
    # stacked Frobenius norm, which gives np.linalg.norm's bits, real or complex
    rng = np.random.default_rng(61)
    for _ in range(200):
        shape = tuple(int(k) for k in rng.integers(1, 9, size=3))
        scale = 10.0 ** rng.uniform(-12, 2)
        real = scale * rng.normal(size=shape)
        mask = ~np.eye(*shape[:2], dtype=bool)[:, :, None]
        for data in (real, real + 1j * scale * rng.normal(size=shape)):
            masked = np.broadcast_to(mask, shape) * data
            assert _frobenius(masked[None])[0] == np.linalg.norm(masked)
    complex_diagonal = ComplexTensor3.from_parts(identity(3, 2), 2.0 * identity(3, 2))
    assert is_f_diagonal(complex_diagonal)
    data = complex_diagonal.data.copy()
    data[0, 2, 1] = 1e-3j
    assert is_f_diagonal(ComplexTensor3(data)).reason == "off-diagonal mass 1.000e-03"


def test_off_diagonality_of_a_stack_is_each_member_alone():
    rng = np.random.default_rng(62)
    stack = np.zeros((4, 3, 3, 2))
    stack[:, [0, 1, 2], [0, 1, 2], :] = rng.normal(size=(4, 3, 2))
    stack[1, 0, 2, 1] = 0.5
    stack[3, 1, 0, 0] = 1e-12
    reasons = _off_diagonality(stack, 1e-9)
    assert reasons == [is_f_diagonal(Tensor3(member), 1e-9).reason for member in stack]
    assert [bool(r) for r in reasons] == [False, True, False, False]


@pytest.mark.parametrize("seed", range(200))
def test_is_t_psd_on_generated(seed):
    assert is_t_psd(gen_t_psd(2, 3, RngStream(900, seed))).holds


def test_is_t_psd_of_a_tiny_tensor():
    # an off-diagonal below ~1e-308 overflowed the Jacobi rotation's b / |b|
    assert is_t_psd(gen_t_psd(3, 3, RngStream(1)) * 1e-300).holds


def test_is_t_psd_negative_identity():
    v = is_t_psd(-1.0 * identity(2, 3))
    assert not v.holds
    assert v.min_gap_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_is_t_psd_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        is_t_psd(gen_random((3, 3, 2), RngStream(57)))


def test_is_t_psd_agrees_with_quadratic_form():
    # sampled <X, A*X> stays nonnegative (up to tolerance) iff the verdict holds
    psd = gen_t_psd(3, 2, RngStream(58))
    assert is_t_psd(psd).holds
    assert quadratic_form_min(psd, n_samples=1000, seed=1) >= -1e-8

    indef = gen_symmetric(3, 2, RngStream(59))
    verdict = is_t_psd(indef)
    sampled = quadratic_form_min(indef, n_samples=1000, seed=2)
    if not verdict.holds:
        assert sampled < 0 or verdict.min_gap_eigenvalue > -1e-6
    else:
        assert sampled >= -1e-7


def test_loewner_reflexive():
    a = gen_symmetric(3, 3, RngStream(60))
    v = loewner_ge(a, a)
    assert v.holds and abs(v.min_gap_eigenvalue) < 1e-12


def test_loewner_transitive_on_chain():
    b, c = gen_loewner_pair(3, 2, RngStream(61))
    a = b + gen_t_psd(3, 2, RngStream(62))
    assert loewner_ge(a, b).holds and loewner_ge(b, c).holds and loewner_ge(a, c).holds


def test_loewner_mis_shaped_pair_raises_the_subtraction_check():
    # the order A >= B is A - B PSD; the subtraction refuses a mis-shaped pair
    a, b = gen_symmetric(3, 3, RngStream(64)), gen_symmetric(2, 3, RngStream(65))
    with pytest.raises(ShapeMismatchError, match=r"^shape mismatch: \(3, 3, 3\) vs \(2, 2, 3\)$"):
        loewner_ge(a, b)


def test_power_order_counterexample_pair():
    a, b = power_order_counterexample()
    assert loewner_ge(a, b).holds
    sq_gap = loewner_ge(t_product(a, a), t_product(b, b))
    assert not sq_gap.holds
    diff = t_product(a, a) - t_product(b, b)
    assert np.allclose(diff.slice(0), [[4.0, 3.0], [3.0, 2.0]], atol=1e-13)
    # minimum eigenvalue of [[4, 3], [3, 2]]: roots of x^2 - 6x - 1
    assert sq_gap.min_gap_eigenvalue == pytest.approx(3 - np.sqrt(10), abs=1e-10)


def test_scale_invariance_of_verdicts():
    a, b = gen_loewner_pair(2, 3, RngStream(63))
    assert loewner_ge(1e3 * a, 1e3 * b).holds
    assert not is_t_psd(-1e3 * identity(2, 3)).holds
