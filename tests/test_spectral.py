"""t-eigenvalues, tensor functions, orthogonal generation, Young witness."""

import numpy as np
import pytest

from ttensor import (
    ComplexTensor3,
    EigenConvergenceError,
    HypothesisViolationError,
    NotSymmetricError,
    NotTPSDError,
    RngStream,
    SingularTensorError,
    Tensor3,
    bcirc,
    core,
    eigensolvers,
    frobenius_norm,
    gen_orthogonal,
    gen_loewner_pair,
    gen_random,
    gen_symmetric,
    is_symmetric,
    gen_t_psd,
    general_eig,
    identity,
    is_orthogonal,
    is_t_psd,
    loewner_certificate,
    loewner_ge,
    multiset_distance,
    spectral,
    spectral_norm,
    t_abs,
    t_eigenvalues,
    t_inverse,
    t_power,
    t_product,
    transpose,
    young_witness,
)
from ttensor.algebra import PREDICATE_TOL, _psd_verdicts
from ttensor.core import _solve_together, _Stack
from ttensor.localization import diag_spectrum_bound, hoffman_wielandt, sorted_pairing_distance
from oracles import brute_bcirc


def _stack(tensors) -> _Stack:
    """The tensors, in order, as the members of one new stack."""
    return _Stack(np.stack([t.data for t in tensors]))


def test_t_eigenvalues_identity():
    spec = t_eigenvalues(identity(2, 3))
    assert len(spec) == 6
    assert np.abs(spec.values - 1.0).max() < 1e-12


def test_t_eigenvalues_two_point_tube():
    t = Tensor3.from_flat([0.0, 1.0], 1, 1, 2)
    spec = t_eigenvalues(t)
    assert sorted(spec.values.real) == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert sorted(spec.slice_index) == [0, 1]


def test_t_eigenvalues_match_bcirc_spectrum():
    for trial in range(10):
        a = gen_random((3, 3, 3), RngStream(70, trial))
        mine = t_eigenvalues(a).values
        ref = general_eig(brute_bcirc(a.data).astype(complex))
        assert multiset_distance(mine, ref) <= 1e-8


def test_multiset_distance_does_not_depend_on_input_order():
    assert multiset_distance([0, 1], [1, 2]) == multiset_distance([1, 0], [1, 2]) == 1.0
    # two optimal assignments tie at squared cost 25 with largest differences 4 and 5
    tied = {multiset_distance(u, v) for u in ([0, 3], [3, 0]) for v in ([4j, 0], [0, 4j])}
    assert len(tied) == 1
    g = np.random.default_rng(7)
    for u in (g.normal(size=8), g.normal(size=8) + 1j * g.normal(size=8)):
        v = u + 0.1 * g.normal(size=8)
        expected = multiset_distance(u, v)
        for _ in range(5):
            assert multiset_distance(g.permutation(u), g.permutation(v)) == expected


def test_t_eigenvalues_complex_tensor():
    a = gen_symmetric(2, 2, RngStream(71))
    b = gen_symmetric(2, 2, RngStream(72))
    t = ComplexTensor3.from_parts(a, b)
    mine = t_eigenvalues(t).values
    ref = np.linalg.eigvals(bcirc(t).matrix)
    assert multiset_distance(mine, ref) <= 1e-8


def test_t_power_identity_cases():
    eye = identity(3, 2)
    for r in (0.0, 0.5, 1.0, 2.0, -1.0):
        assert frobenius_norm(t_power(eye, r) - eye) < 1e-12
    assert frobenius_norm(t_power(4.0 * eye, 0.5) - 2.0 * eye) < 1e-12


def test_t_power_square_matches_product():
    for trial in range(20):
        a = gen_t_psd(3, 3, RngStream(73, trial))
        assert frobenius_norm(t_power(a, 2.0) - t_product(a, a)) <= 1e-9 * (
            1 + frobenius_norm(a) ** 2
        )


def test_t_power_sqrt_round_trip_and_psd():
    a = gen_t_psd(3, 4, RngStream(74))
    root = t_power(a, 0.5)
    assert is_t_psd(root).holds
    assert frobenius_norm(t_power(root, 2.0) - a) <= 1e-8 * (1 + frobenius_norm(a))
    assert frobenius_norm(t_power(a, 1.0) - a) <= 1e-12 * (1 + frobenius_norm(a))


def test_t_power_negative_exponent_inverse():
    a = gen_t_psd(2, 3, RngStream(75), delta=0.1)
    inv = t_power(a, -1.0)
    assert frobenius_norm(inv - t_inverse(a)) <= 1e-8


def test_t_power_rejects_indefinite():
    with pytest.raises(NotTPSDError):
        t_power(-1.0 * identity(2, 2), 0.5)
    with pytest.raises(NotSymmetricError):
        t_power(gen_random((2, 2, 2), RngStream(76)), 0.5)
    with pytest.raises(SingularTensorError):
        t_power(Tensor3.zeros(2, 2, 2), -1.0)


def test_t_power_rejects_non_finite_exponents():
    a = gen_t_psd(2, 3, RngStream(1))
    for r in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite exponents"):
            t_power(a, r)


def test_t_power_spectral_mapping():
    a = gen_t_psd(3, 3, RngStream(77))
    for r in (0.5, 2.0, 1.5):
        powered = np.sort(t_eigenvalues(t_power(a, r)).values.real)
        mapped = np.sort(t_eigenvalues(a).values.real ** r)
        assert np.abs(powered - mapped).max() <= 1e-8 * (1 + mapped.max())


def test_t_abs_properties():
    a = gen_t_psd(3, 2, RngStream(78))
    assert frobenius_norm(t_abs(a) - a) <= 1e-9 * (1 + frobenius_norm(a))
    s = gen_symmetric(3, 2, RngStream(79))
    assert frobenius_norm(t_abs(-1.0 * s) - t_abs(s)) <= 1e-9 * (1 + frobenius_norm(s))
    # absolute value preserves slicewise singular values, hence the norm
    r = gen_random((3, 3, 4), RngStream(80))
    assert frobenius_norm(t_abs(r)) == pytest.approx(frobenius_norm(r), rel=1e-9)
    assert is_t_psd(t_abs(r)).holds


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 2, 4), (2, 3, 1), (3, 2, 1), (2, 3, 5)])
def test_t_abs_of_a_rectangular_tensor_is_the_unfolding_abs(shape):
    a = gen_random(shape, RngStream(82))
    n2, n3 = shape[1], shape[2]
    out = t_abs(a)
    assert out.shape == (n2, n2, n3)
    assert is_symmetric(out) and is_t_psd(out).holds
    # |bcirc(A)| = V diag(s) V^T from the SVD of bcirc(A), which never forms
    # the Gram: a wide Gram is singular, and its square root is off by ~1e-8
    _, s, vh = np.linalg.svd(brute_bcirc(a.data))
    s = np.pad(s, (0, len(vh) - len(s)))
    expected = (vh.T * s) @ vh
    assert np.abs(brute_bcirc(out.data) - expected).max() <= 1e-13


def test_gen_orthogonal_n3_1():
    q = gen_orthogonal(4, 1, RngStream(81))
    m = q.slice(0)
    assert np.abs(m @ m.T - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("seed", range(100))
def test_gen_orthogonal_residual(seed):
    q = gen_orthogonal(3, 3, RngStream(1000, seed))
    assert frobenius_norm(t_product(transpose(q), q) - identity(3, 3)) <= 1e-9


def test_gen_orthogonal_unit_spectral_norm():
    q = gen_orthogonal(3, 4, RngStream(82))
    assert spectral_norm(q) == pytest.approx(1.0, abs=1e-9)


def test_young_witness_identity_equality():
    eye = identity(2, 2)
    u, verdict = young_witness(eye, eye, 2.0, 2.0)
    assert verdict.holds
    assert abs(verdict.min_gap_eigenvalue) < 1e-9


def test_young_witness_psd_equal_pair():
    a = gen_t_psd(3, 2, RngStream(83))
    u, verdict = young_witness(a, a, 2.0, 2.0)
    assert verdict.holds
    assert bool(is_orthogonal(u, 1e-8))


def test_young_witness_validates_exponents():
    # the shared exponent check of the Young and Hoelder certifiers
    a = gen_random((2, 2, 2), RngStream(84))
    with pytest.raises(HypothesisViolationError, match=r"^exponents p=2.0, q=3.0 are not conjugate$"):
        young_witness(a, a, 2.0, 3.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_young_witness_random_pairs(p):
    q = p / (p - 1.0)
    for trial in range(100):
        a = gen_random((2, 2, 2), RngStream(1100 + int(p * 10), trial))
        b = gen_random((2, 2, 2), RngStream(1200 + int(p * 10), trial))
        u, verdict = young_witness(a, b, p, q)
        assert verdict.holds
        assert bool(is_orthogonal(u, 1e-8))
        # independent oracle: sorted-eigenvalue dominance per Fourier slice
        from ttensor import to_fourier

        fa, fb = to_fourier(a), to_fourier(b)
        for k in range(a.n3):
            sa, sb = fa.slices[k], fb.slices[k]
            prod = sa @ sb.conj().T
            c_vals = np.sqrt(np.clip(np.linalg.eigvalsh(prod.conj().T @ prod), 0, None))
            d = (
                _mat_power(sa.conj().T @ sa, p / 2) / p
                + _mat_power(sb.conj().T @ sb, q / 2) / q
            )
            d_vals = np.linalg.eigvalsh(d)
            assert np.all(c_vals <= d_vals + 1e-8 * (1 + d_vals.max()))


def _mat_power(m, r):
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * np.clip(w, 0, None) ** r) @ v.conj().T


def test_schur_transport_inequality():
    for trial in range(20):
        a = gen_random((3, 3, 3), RngStream(85, trial))
        total = np.sum(np.abs(t_eigenvalues(a).values) ** 2)
        bound = 3 * frobenius_norm(a) ** 2
        assert total <= bound + 1e-8 * (1 + bound)


def test_similarity_invariance():
    a = gen_random((3, 3, 3), RngStream(86))
    q = gen_orthogonal(3, 3, RngStream(87))
    conj = t_product(t_product(t_inverse(q), a), q)
    assert multiset_distance(t_eigenvalues(conj).values, t_eigenvalues(a).values) <= 1e-7


def test_function_outputs_are_exactly_real():
    # imaginary residual before discarding must stay tiny (mirrored slices)
    a = gen_t_psd(3, 4, RngStream(88))
    from ttensor import to_fourier

    root = t_power(a, 0.5)
    fs = to_fourier(root)
    assert fs.symmetry_residual() <= 1e-10 * (1 + frobenius_norm(a))


def _times_power_of_two(x, k):
    return np.ldexp(np.ascontiguousarray(x, dtype=complex).view(float), k).view(complex)


@pytest.mark.parametrize("k", [600, -600, 900, -900])
@pytest.mark.parametrize("n", [3, 4, 8])
def test_t_eigenvalues_scale_exactly_with_powers_of_two(n, k):
    # the transform, the Jacobi and the QR paths all commute with a power of
    # two, and so does the route between them (a symmetry residual bounded by
    # PREDICATE_TOL * ||A||_F, with no absolute floor), so the t-eigenvalues
    # of 2**k A are 2**k times those of A, bit for bit, at every scale
    tensors = [gen_symmetric(n, 5, RngStream(95, n)), gen_random((n, n, 5), RngStream(96, n))]
    for a in tensors:
        scaled = t_eigenvalues(Tensor3(np.ldexp(a.data, k))).values
        expected = _times_power_of_two(t_eigenvalues(a).values, k)
        assert scaled.shape == expected.shape
        assert np.array_equal(scaled.view(np.uint64), expected.view(np.uint64))


# --- one solver call for a wave of independent spectra ----------------------

def _count_kernels(monkeypatch):
    counts = {"jacobi": 0, "general": 0}
    jacobi, qr = eigensolvers._jacobi, eigensolvers._qr_eig

    def counting_jacobi(stack):
        counts["jacobi"] += 1
        return jacobi(stack)

    def counting_qr(stack):
        counts["general"] += 1
        return qr(stack)

    monkeypatch.setattr(eigensolvers, "_jacobi", counting_jacobi)
    monkeypatch.setattr(eigensolvers, "_qr_eig", counting_qr)
    return counts


def _later_calls(a, b):
    return [
        is_t_psd(a).min_gap_eigenvalue,
        loewner_ge(a, b).min_gap_eigenvalue,
        t_power(a, 0.5).data.tobytes(),
        t_power(b, 1.5).data.tobytes(),
        _Stack.of(a - b).abs_power(0.7).member(0).data.tobytes(),
        loewner_certificate("t", b, a, dims=a.shape, params={}).margin,
    ]


@pytest.mark.parametrize("n3", [4, 5])
def test_wave_in_one_jacobi_call_matches_each_call_alone(monkeypatch, n3):
    # the half spectra of a PSD check, an order check, powers and a Loewner
    # gap share one call, each stack keeps its share, an absolute value takes
    # an SVD and no Jacobi call, and each call computes what it computes alone
    a, b = gen_loewner_pair(3, n3, RngStream(91))
    alone = _later_calls(a, b)
    counts = _count_kernels(monkeypatch)
    x, y = _Stack.of(a), _Stack.of(b)
    diff, gap = x - y, (x - y).sym()
    _solve_together(x, diff, y, gap)
    assert counts["jacobi"] == 1
    xp, yp = x.cat(y).power([0.5, 1.5]).split(2)
    shared = [
        _psd_verdicts(x, PREDICATE_TOL)[0].min_gap_eigenvalue,
        _psd_verdicts(diff, PREDICATE_TOL)[0].min_gap_eigenvalue,
        xp.data.tobytes(),
        yp.data.tobytes(),
        diff.abs_power(0.7).data.tobytes(),
        gap.extremes()[0][0],
    ]
    assert counts["jacobi"] == 1
    assert shared == alone


def test_unshareable_wave_leaves_each_stack_to_its_own_call(monkeypatch):
    # a wave that cannot share a call leaves every stack to the call that
    # reads it, which raises its own error where it raises alone
    a = gen_t_psd(3, 4, RngStream(92))
    small = gen_t_psd(2, 4, RngStream(93))
    x = _Stack.of(a)
    counts = _count_kernels(monkeypatch)
    _solve_together(x, _Stack.of(small))  # two shapes
    _solve_together(x, x)  # a lone stack, named twice
    assert counts["jacobi"] == 0
    monkeypatch.setattr(eigensolvers, "_MAX_SWEEPS", 1)
    with pytest.raises(EigenConvergenceError) as alone:
        t_power(a, 0.5)
    _solve_together(x, _Stack(a.data[None]))  # the call fails, and nothing is kept
    assert counts["jacobi"] == 2
    with pytest.raises(EigenConvergenceError) as after:
        x.power(0.5)
    assert str(after.value) == str(alone.value)
    assert counts["jacobi"] == 3  # not tried in a wave again


def test_non_symmetric_t_eigenvalues_take_only_the_general_solver(monkeypatch):
    # t_eigenvalues of a non-symmetric tensor takes the general solver only
    a = gen_random((3, 3, 4), RngStream(94))
    counts = _count_kernels(monkeypatch)
    t_eigenvalues(a)
    assert counts == {"jacobi": 0, "general": 1}


@pytest.mark.parametrize("n3", [4, 5])
def test_mixed_stack_eigenvalues_are_each_members_alone(monkeypatch, n3):
    # the symmetric members read the stack's one Jacobi call, the others
    # share one general call, and each member gets its lone spectrum's bits
    members = [gen_symmetric(3, n3, RngStream(97)), gen_random((3, 3, n3), RngStream(98)),
               gen_symmetric(3, n3, RngStream(99)), gen_random((3, 3, n3), RngStream(100))]
    alone = [t_eigenvalues(Tensor3(t.data)) for t in members]
    counts = _count_kernels(monkeypatch)
    stacked = _stack(members).eigenvalues()
    assert counts == {"jacobi": 1, "general": 1}
    assert stacked.shape == (len(members), 3 * n3)
    for s, a in zip(stacked, alone, strict=True):
        assert s.tobytes() == a.values.tobytes()


def test_symmetric_pair_spectra_take_one_call(monkeypatch):
    # both Hermitian spectra of a pair go to the Jacobi kernel together
    a = gen_symmetric(3, 4, RngStream(95))
    b = gen_symmetric(3, 4, RngStream(96))
    counts = _count_kernels(monkeypatch)
    for certify in (hoffman_wielandt, diag_spectrum_bound, sorted_pairing_distance):
        certify(Tensor3(a.data), Tensor3(b.data))  # fresh tensors keep no spectra
        assert counts == {"jacobi": 1, "general": 0}, certify.__name__
        counts["jacobi"] = 0


# --- the trial axis ------------------------------------------------------------

# exponents whose numpy power takes the square-root, identity, square and
# general paths, mixed in one stack
_MIXED_EXPONENTS = [0.5, 1, 2, 1.25, 0.625]


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5), (3, 127), (1, 2)])
def test_stacked_t_power_members_are_bit_equal_to_lone_calls(n, n3):
    xs = [gen_t_psd(n, n3, RngStream(200 + i)) for i in range(len(_MIXED_EXPONENTS))]
    stack = _stack(xs)
    powers, again = stack.power(_MIXED_EXPONENTS), stack.power(_MIXED_EXPONENTS[::-1])
    for i, x in enumerate(xs):
        assert powers.data[i].tobytes() == t_power(x, _MIXED_EXPONENTS[i]).data.tobytes()
        assert again.data[i].tobytes() == t_power(x, _MIXED_EXPONENTS[-1 - i]).data.tobytes()


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5), (3, 128)])
def test_stacked_abs_power_members_are_bit_equal_to_lone_calls(n, n3):
    xs = [gen_random((n, n, n3), RngStream(300 + i)) for i in range(len(_MIXED_EXPONENTS))]
    powers = _stack(xs).abs_power(_MIXED_EXPONENTS)
    for x, r, member in zip(xs, _MIXED_EXPONENTS, powers.data, strict=True):
        alone = core._Stack.of(x).abs_power(r)
        assert member.tobytes() == alone.data.tobytes()


def _formed_gram_power(x, s):
    """``(x^T x)^s`` the way |X|^r was once taken: the power of the formed Gram."""
    return (x.transpose() @ x).sym().power(s).data


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5), (3, 127), (1, 2)])
def test_abs_power_matches_the_formed_gram(n, n3):
    # every Fourier slice of a + 2 ||a||_2 I has condition at most 3, so the
    # formed Gram loses nothing to its squared condition
    a = gen_random((n, n, n3), RngStream(600 + n3))
    x = core._Stack.of(a + 2.0 * spectral_norm(a) * identity(n, n3))
    for s in (0.25, 0.5, 1.0, 1.5):
        expected = _formed_gram_power(x, s)
        assert np.abs(x.abs_power(2 * s).data - expected).max() <= 1e-12 * np.abs(expected).max()


def test_abs_power_of_rank_deficient_and_wide_members():
    # a member whose frontal slices are one rank-1 matrix has one rank-1
    # Fourier slice and zero slices elsewhere; a 2x3 member's Gram is 3x3 of
    # rank 2, so its SVD misses a singular value that counts as zero
    u = np.array([1.0, -2.0, 0.5])
    rank_one = core._Stack.of(Tensor3(np.repeat(np.outer(u, u)[:, :, None], 6, axis=2)))
    wide = core._Stack.of(gen_random((2, 3, 5), RngStream(610)))
    for x in (rank_one, wide):
        for s in (0.25, 0.5):
            assert np.isfinite(x.abs_power(2 * s).data).all()
        # the formed Gram's roundoff at a zero eigenvalue, about 1e-32, is
        # harmless only at exponents s >= 1
        for s in (1.0, 1.5):
            expected = _formed_gram_power(x, s)
            assert np.abs(x.abs_power(2 * s).data - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(x.abs_power(0.0).data - identity(3, x.n3).data).max() <= 1e-12


def test_stacked_powers_of_several_stacks_split_per_stack():
    # stacks of one shape are decomposed together and handed back apart;
    # stacks of two shapes are each taken alone
    a = [gen_t_psd(3, 4, RngStream(400 + i)) for i in range(2)]
    b = [gen_t_psd(3, 4, RngStream(410 + i)) for i in range(2)]
    c = gen_t_psd(2, 4, RngStream(420))
    stacks = [_stack(a), _stack(b), core._Stack.of(c)]
    pa, pb = stacks[0].cat(stacks[1]).power([0.5, 2, 1.25, 1]).split(2)
    pc = stacks[2].power([0.625])
    expected = [t_power(a[0], 0.5), t_power(a[1], 2), t_power(b[0], 1.25), t_power(b[1], 1),
                t_power(c, 0.625)]
    got = [pa.member(0), pa.member(1), pb.member(0), pb.member(1), pc.member(0)]
    assert [t.data.tobytes() for t in got] == [t.data.tobytes() for t in expected]


def test_stacked_t_power_raises_the_first_failing_members_error():
    # a negative power needs strict definiteness, member by member
    good = gen_t_psd(3, 4, RngStream(500))
    r = gen_random((2, 3, 4), RngStream(501))
    singular = [t_product(transpose(r), r), Tensor3.zeros(3, 3, 4)]
    with pytest.raises(SingularTensorError) as alone:
        t_power(singular[0], -0.5)
    with pytest.raises(SingularTensorError) as stacked:
        _stack([good, singular[0], good, singular[1]]).power(-0.5)
    assert str(stacked.value) == str(alone.value)


def test_stacked_t_power_trusts_its_operands():
    # symmetry and semidefiniteness are the hypothesis gates' to check: the
    # kernel powers the symmetric part, with the eigenvalues clipped at 0
    minus = core._Stack.of(-1.0 * identity(2, 3))
    assert not minus.power(0.5).data.any()
    with pytest.raises(NotTPSDError):
        t_power(minus.member(0), 0.5)


@pytest.mark.parametrize("n,n3", [(3, 4), (2, 5), (3, 128)])
def test_stacked_norms_are_bit_equal_to_lone_calls(n, n3):
    xs = [gen_random((n, n, n3), RngStream(600 + i)) * (1.0 + i) for i in range(4)]
    stack = _stack(xs)
    assert stack.frobenius() == [frobenius_norm(x) for x in xs]
    assert stack.spectral() == [spectral_norm(x) for x in xs]
    # a stack made of stacks transforms its members as they transform alone
    parts = [core._Stack.of(x) for x in xs[:2]]
    whole = core._Stack.cat(*parts)
    assert whole.slices.tobytes() == np.concatenate([p.slices for p in parts]).tobytes()
    fresh = [_stack(xs[:2]), _stack(xs[2:])]
    joined = core._Stack.cat(*fresh)
    assert joined.slices.tobytes() == stack.slices.tobytes()
