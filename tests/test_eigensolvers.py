"""Quality gates for the in-repo eigensolvers, cross-checked against LAPACK."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import general_eig_reference, jacobi_eig_reference
from ttensor import EigenConvergenceError, NotSymmetricError, general_eig, hermitian_eig
from ttensor import eigensolvers


def _random_hermitian(rng, n, real=False):
    m = rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
    return (m + m.conj().T) / 2


def test_hermitian_diagonal_input():
    e = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(e.values, [1.0, 2.0, 3.0])


def test_hermitian_2x2_hand_values():
    # characteristic polynomial x^2 - 3x + 1 = 0
    e = hermitian_eig(np.array([[2.0, 1.0], [1.0, 1.0]]))
    expected = np.array([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2])
    assert np.abs(e.values - expected).max() < 1e-12


def test_hermitian_residuals_random():
    rng = np.random.default_rng(0)
    for t in range(100):
        n = int(rng.integers(1, 13))
        m = _random_hermitian(rng, n, real=(t % 3 == 0))
        e = hermitian_eig(m)
        rec = np.linalg.norm(m @ e.vectors - e.vectors * e.values)
        assert rec <= 1e-10 * (1 + np.linalg.norm(m))
        assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(n)) <= 1e-10
        assert np.all(np.diff(e.values) >= 0)


def test_hermitian_values_match_lapack():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = _random_hermitian(rng, n)
        mine = hermitian_eig(m).values
        ref = np.linalg.eigvalsh(m)
        assert np.abs(mine - ref).max() <= 1e-11 * (1 + np.abs(ref).max())


def test_hermitian_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


_TRIDIAGONAL = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_hermitian_eig_at_extreme_scales(scale):
    # Jacobi stops at 1e-13 ||M||_F: a norm whose sum of squares overflowed
    # stopped it at once, on the diagonal; one that underflowed to 0 never
    # let it stop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hermitian_eig(scale * _TRIDIAGONAL).values
    assert np.allclose(got, scale * np.linalg.eigvalsh(_TRIDIAGONAL), rtol=1e-12, atol=0)


def test_general_eig_of_a_tiny_triangular_matrix():
    # the QR phase skips a member of norm 0, so a norm that underflowed
    # returned all-zero eigenvalues
    m = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    got = general_eig(1e-200 * m)
    assert np.allclose(np.sort(got.real), 1e-200 * np.array([1.0, 5.0, 9.0]), rtol=1e-12, atol=0)
    assert (got.imag == 0.0).all()


def _times_power_of_two(x, k):
    """``2**k * x`` exactly, each real and imaginary part's exponent moved
    by ``k`` (``np.ldexp`` takes no complex input)."""
    return np.ldexp(np.ascontiguousarray(x, dtype=complex).view(float), k).view(complex)


@pytest.mark.parametrize("k", [600, -600, 900, -900])
def test_general_eig_scales_exactly_with_powers_of_two(k):
    # each member is brought to unit scale by a power of two, exactly, so the
    # values of 2**k M are 2**k times those of M, bit for bit
    rng = np.random.default_rng(76)
    upper = _TRIDIAGONAL + np.triu(_TRIDIAGONAL, 1)
    cases = [_TRIDIAGONAL, upper, upper.T] + [
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) * (n != 3) for n in (3, 4, 8)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in cases:
            assert _same_bits(general_eig(_times_power_of_two(m, k)), _times_power_of_two(general_eig(m), k))
        # a stack's members are scaled each by its own power of two
        m = cases[-1]
        stack = np.stack([_times_power_of_two(m, k), m, _times_power_of_two(m, -k)])
        expected = np.stack([_times_power_of_two(general_eig(m), j) for j in (k, 0, -k)])
        assert _same_bits(general_eig(stack), expected)


@pytest.mark.parametrize("k", [900, -900, -1000, -1020])
def test_hermitian_eig_scales_exactly_with_powers_of_two(k):
    # each member is brought to unit scale by a power of two, exactly, so the
    # values of 2**k M are 2**k times those of M and the vectors are M's;
    # unscaled, an off-diagonal below ~1e-308 overflowed b / |b| to NaN
    a = np.random.default_rng(0).standard_normal((4, 4))
    m = a + a.T
    base = hermitian_eig(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hermitian_eig(np.ldexp(m, k))
    assert _same_bits(got.values, np.ldexp(base.values, k))
    assert _same_bits(got.vectors, base.vectors)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_general_eig_at_extreme_scales(scale):
    # unscaled, the Wilkinson shift overflowed to NaN at 1e200 and the 2x2
    # discriminant underflowed to 0 at 1e-200
    upper = _TRIDIAGONAL + np.triu(_TRIDIAGONAL, 1)
    for m in (_TRIDIAGONAL, upper, upper.T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = general_eig(scale * m) / scale
        expected = np.sort(np.linalg.eigvals(m).real)
        assert np.allclose(np.sort(got.real), expected, rtol=1e-12, atol=0)
        assert np.abs(got.imag).max() <= 1e-12 * np.abs(expected).max()


def test_solvers_write_no_input():
    # the stack is taken as it is, without a copy, and no kernel writes it
    rng = np.random.default_rng(77)
    stack = np.stack([_random_hermitian(rng, 4) for _ in range(3)])
    stack.flags.writeable = False
    before = stack.copy()
    hermitian_eig(stack)
    general_eig(stack)
    assert _same_bits(stack, before)


def test_general_triangular_gives_diagonal():
    m = np.triu(np.arange(16, dtype=float).reshape(4, 4)) + np.diag([5.0, 6.0, 7.0, 8.0])
    w = np.sort_complex(general_eig(m))
    assert np.allclose(w, np.sort_complex(np.diag(m).astype(complex)), atol=1e-12)


def test_general_reflection_spectrum():
    w = np.sort_complex(general_eig(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_general_companion_roots_of_unity():
    companion = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = general_eig(companion)
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    cost = np.abs(w[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-10


def test_general_matches_lapack_random():
    rng = np.random.default_rng(2)
    for t in range(100):
        n = int(rng.integers(1, 13))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if t % 4 == 0:
            m = m.real.astype(complex)
        w = general_eig(m)
        ref = np.linalg.eigvals(m)
        cost = np.abs(w[:, None] - ref[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-9 * (1 + np.abs(ref).max())


def test_general_repeated_and_zero():
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    w = general_eig(jordan)
    assert np.abs(w - 2.0).max() < 1e-4  # defective eigenvalues split by cbrt(eps)
    assert np.all(general_eig(np.zeros((5, 5))) == 0)


def test_determinism():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    w1, w2 = general_eig(m.copy()), general_eig(m.copy())
    assert np.array_equal(w1, w2)
    h = _random_hermitian(rng, 8)
    e1, e2 = hermitian_eig(h), hermitian_eig(h)
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_hermitian_eig_returns_fresh_writable_results():
    # nothing is cached: every call solves afresh and returns its own,
    # writable result
    h = _random_hermitian(np.random.default_rng(5), 3)
    e1, e2 = hermitian_eig(h), hermitian_eig(h)
    assert e1 is not e2
    e1.values[0] = 0.0
    assert e2.values[0] != 0.0


def test_hermitian_eig_raises_on_every_call():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for _ in range(3):
        with pytest.raises(NotSymmetricError):
            hermitian_eig(bad)


# ---------------------------------------------------------------------------
# stacked solver: bit-identical to the one-matrix cyclic Jacobi
# ---------------------------------------------------------------------------

def _mixed_stack(rng, n, b):
    """Hermitian members of several kinds: general, real, PSD, near-singular
    (one row and column scaled by 1e-9) and all-zero."""
    stack = np.empty((b, n, n), dtype=complex)
    for i in range(b):
        kind = i % 5
        m = _random_hermitian(rng, n, real=(kind == 1))
        if kind == 2:
            m = m @ m.conj().T
        elif kind == 3:
            k = int(rng.integers(n))
            m[k, :] *= 1e-9
            m[:, k] *= 1e-9
        elif kind == 4:
            m = np.zeros((n, n))
        stack[i] = m
    return stack


def _assert_matches_reference(stack, e, max_sweeps=100):
    assert e.values.shape == stack.shape[:2] and e.vectors.shape == stack.shape
    for i, m in enumerate(stack):
        values, vectors = jacobi_eig_reference(m, max_sweeps)
        assert np.array_equal(e.values[i], values), i
        assert np.array_equal(e.vectors[i], vectors), i


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_stack_matches_reference_jacobi(n):
    rng = np.random.default_rng(40 + n)
    for b in (1, 2, 3, 5, 17, 65, 70):
        stack = _mixed_stack(rng, n, b)
        _assert_matches_reference(stack, hermitian_eig(stack))


def test_stack_members_converging_in_different_sweeps(monkeypatch):
    rng = np.random.default_rng(41)
    general = _random_hermitian(rng, 4)
    diagonal = np.diag([3.0, -1.0, 2.0, 0.5])  # converged before the first sweep
    one_pair = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    one_pair[1, 2], one_pair[2, 1] = 0.5 + 0.25j, 0.5 - 0.25j  # one sweep suffices
    skipped = _random_hermitian(rng, 4)
    skipped[0, 1] = skipped[1, 0] = 1e-16  # below the skip threshold from the start
    stack = np.stack([general, diagonal, one_pair, skipped, general.real + 0j])
    _assert_matches_reference(stack, hermitian_eig(stack))
    for sweeps in (1, 2, 3):  # members still live when the budget runs out
        stack = np.stack([diagonal, one_pair])
        monkeypatch.setattr(eigensolvers, "_MAX_SWEEPS", sweeps)
        _assert_matches_reference(stack, hermitian_eig(stack), sweeps)


def test_stack_reports_first_non_hermitian_member():
    rng = np.random.default_rng(42)
    stack = _mixed_stack(rng, 3, 6)
    stack[2, 0, 1] += 1.0
    stack[4, 1, 2] += 5.0
    with pytest.raises(NotSymmetricError) as reference:
        jacobi_eig_reference(stack[2])
    with pytest.raises(NotSymmetricError) as err:
        hermitian_eig(stack)
    assert str(err.value) == str(reference.value)


def test_stack_reports_first_member_out_of_sweeps(monkeypatch):
    rng = np.random.default_rng(43)
    stack = np.stack([np.diag([1.0, 2.0, 3.0])] + [_random_hermitian(rng, 5)[:3, :3] for _ in range(3)])
    with pytest.raises(EigenConvergenceError) as reference:
        jacobi_eig_reference(stack[1], max_sweeps=1)
    monkeypatch.setattr(eigensolvers, "_MAX_SWEEPS", 1)
    with pytest.raises(EigenConvergenceError) as err:
        hermitian_eig(stack)
    assert str(err.value) == str(reference.value)


def test_stack_solve_emits_no_warnings():
    rng = np.random.default_rng(44)
    stack = _mixed_stack(rng, 4, 25)
    stack[0] = np.diag([1.0, 1e12, -3.0, 0.0])
    stack[1, 0, 3] = stack[1, 3, 0] = 1e-30  # |tau| beyond 1e8 on a live member
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hermitian_eig(stack)


def test_two_dimensional_input_keeps_matrix_shapes():
    h = _random_hermitian(np.random.default_rng(45), 3)
    e = hermitian_eig(h)
    assert e.values.shape == (3,) and e.vectors.shape == (3, 3)
    stacked = hermitian_eig(h[None])
    assert np.array_equal(stacked.values[0], e.values)
    assert np.array_equal(stacked.vectors[0], e.vectors)
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros((1, 1, 2, 2))):
        with pytest.raises(ValueError):
            hermitian_eig(bad)


def test_stack_solved_in_parts_matches_whole_solve(kernels):
    # a stack solved in parts gives each member the bits of the whole, and
    # every call solves all of its members
    rng = np.random.default_rng(47)
    stack = np.stack([_random_hermitian(rng, 4) for _ in range(5)])
    fresh = hermitian_eig(stack)
    kernels.clear()
    parts = [hermitian_eig(stack[:1]), hermitian_eig(stack[1:3]), hermitian_eig(stack[3:])]
    assert kernels.members("_jacobi") == [m.tobytes() for m in stack]
    assert np.array_equal(np.concatenate([e.values for e in parts]), fresh.values)
    assert np.array_equal(np.concatenate([e.vectors for e in parts]), fresh.vectors)


def test_lone_matrix_gets_its_stack_member_result():
    # a matrix alone gets the bits it gets as a member of a stack
    rng = np.random.default_rng(48)
    stack = np.stack([_random_hermitian(rng, 3) for _ in range(3)])
    whole = hermitian_eig(stack)
    e1 = hermitian_eig(stack[1].copy())
    assert isinstance(e1, eigensolvers.HermitianEigen)
    assert np.array_equal(e1.values, whole.values[1]) and np.array_equal(e1.vectors, whole.vectors[1])
    values, vectors = jacobi_eig_reference(stack[1])
    assert np.array_equal(e1.values, values) and np.array_equal(e1.vectors, vectors)


# ---------------------------------------------------------------------------
# stacked general solver: bit-identical to the one-matrix Hessenberg + QR
# ---------------------------------------------------------------------------

_GENERAL_KINDS = (
    "complex", "real", "zero", "triangular", "jordan", "cyclic", "hessenberg", "zero-column",
)


def _general_member(rng, n, kind):
    """One ``n x n`` matrix of a kind: complex, real-valued, all-zero, upper
    triangular, a Jordan block (defective), the cyclic shift (the companion
    matrix of ``x^n - 1``, whose Wilkinson shifts stall until the exceptional
    shift breaks the cycle), already Hessenberg, or with a zero first column
    (the Householder step skips it)."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "real":
        return m.real + 0j
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "triangular":
        return np.triu(m)
    if kind == "jordan":
        return (2.0 * np.eye(n) + np.eye(n, k=1)).astype(complex)
    if kind == "cyclic":
        return np.roll(np.eye(n), 1, axis=0).astype(complex)
    if kind == "hessenberg":
        return np.triu(m, -1)
    if kind == "zero-column" and n:
        m[:, 0] = 0.0
    return m


def _general_stack(rng, n, b, kinds=_GENERAL_KINDS):
    return np.stack([_general_member(rng, n, kinds[i % len(kinds)]) for i in range(b)])


def _same_bits(x, y) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _assert_matches_general_reference(stack, values, iter_per_eigenvalue=30):
    assert values.shape == stack.shape[:2]
    for i, m in enumerate(stack):
        reference = general_eig_reference(m, iter_per_eigenvalue)
        assert np.array_equal(values[i], reference), i
        assert _same_bits(values[i], reference), i  # signed zeros included


@pytest.mark.parametrize("n", range(9))
def test_general_stack_matches_reference(n):
    rng = np.random.default_rng(60 + n)
    for b in (1, 2, 3, 8, 17, 70):
        stack = _general_stack(rng, n, b)
        _assert_matches_general_reference(stack, general_eig(stack))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(0, 8),
    b=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(_GENERAL_KINDS), min_size=1, max_size=4),
)
def test_general_stack_property(n, b, seed, kinds):
    stack = _general_stack(np.random.default_rng(seed), n, b, kinds)
    _assert_matches_general_reference(stack, general_eig(stack))


def _spy_steps(monkeypatch):
    """Record, for each round that takes QR steps, the stack members
    stepped and those given the exceptional shift."""
    rounds = []
    steps = eigensolvers._shifted_qr_steps

    def spy(h, members, lo, end, exceptional):
        rounds.append((members.tolist(), members[exceptional].tolist()))
        return steps(h, members, lo, end, exceptional)

    monkeypatch.setattr(eigensolvers, "_shifted_qr_steps", spy)
    return rounds


def test_general_stack_exceptional_shift_and_staggered_deflation(monkeypatch):
    rng = np.random.default_rng(70)
    kinds = ("cyclic", "triangular", "complex", "jordan", "real", "zero")
    stack = _general_stack(rng, 5, 12, kinds)
    rounds = _spy_steps(monkeypatch)
    values = general_eig(stack)
    _assert_matches_general_reference(stack, values)
    # only the cyclic members (0 and 6) stall long enough for the
    # exceptional shift, and members leave the live set in different rounds
    assert {m for _, exceptional in rounds for m in exceptional} == {0, 6}
    last_step = {m: r for r, (members, _) in enumerate(rounds) for m in members}
    assert len(set(last_step.values())) > 2
    assert 1 not in last_step and 3 not in last_step  # triangular: no step at all


def test_general_stack_reports_first_member_out_of_steps(monkeypatch):
    # the lowest failing member is reported even when a later one runs out
    # of steps first: member 1 deflates once before it stalls, so it fails a
    # round after the cyclic member 2, which never deflates
    rng = np.random.default_rng(71)

    def outcome(m):
        try:
            general_eig_reference(m, iter_per_eigenvalue=1)
        except EigenConvergenceError as exc:
            return str(exc)
        return None

    late = next(m for m in (_general_member(rng, 4, "complex") for _ in range(50))
                if (outcome(m) or "[0, 4)").endswith("[0, 3)"))
    cyclic = _general_member(rng, 4, "cyclic")
    assert outcome(cyclic).endswith("[0, 4)")
    stack = _general_stack(rng, 4, 9, ("triangular", "complex", "cyclic"))
    stack[1], stack[2] = late, cyclic
    failing = [(i, outcome(m)) for i, m in enumerate(stack) if outcome(m)]
    assert len(failing) > 2 and failing[0][0] == 1
    monkeypatch.setattr(eigensolvers, "_QR_STEPS_PER_EIGENVALUE", 1)
    with pytest.raises(EigenConvergenceError) as err:
        general_eig(stack)
    assert str(err.value) == failing[0][1]
    # the members that converge within the budget are not reported
    ok = [i for i in range(len(stack)) if i not in dict(failing)]
    _assert_matches_general_reference(stack[ok], general_eig(stack[ok]), 1)


def test_general_deflation_threshold_uses_scalar_abs():
    # np.abs and the scalar abs() (a hypot) differ in the last bit on about a
    # third of complex inputs; a subdiagonal entry whose hypot lies one ulp
    # above the deflation tolerance 1e-13 * ||H||_F must not deflate
    rng = np.random.default_rng(74)
    z = rng.normal(size=64) + 1j * rng.normal(size=64)
    c = next(c for c in z if np.abs(c) < np.hypot(c.real, c.imag))
    t = np.abs(c) / 1e-13
    for _ in range(200):  # step the diagonal until the tolerance is np.abs(c)
        m = np.array([[t, 0.0], [c, 0.0]])
        if 1e-13 * np.linalg.norm(m) == np.abs(c):
            break
        t = np.nextafter(t, np.inf)
    else:
        pytest.fail("no diagonal puts the tolerance on np.abs(c)")
    reference = general_eig_reference(m)
    assert reference[1] == 0.0  # one 2x2 block: roots t, then 0
    assert _same_bits(general_eig(m), reference)


def test_general_nan_member_raises():
    # a NaN never deflates, so the reference runs out of steps; the stacked
    # solver raises the same error type on entry, naming the member
    rng = np.random.default_rng(72)
    stack = _general_stack(rng, 3, 10)
    stack[8, 1, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(EigenConvergenceError):
            general_eig_reference(stack[8])
        with pytest.raises(EigenConvergenceError) as err:
            general_eig(stack)
    assert str(err.value) == "stack member 8 has a non-finite entry (NaN or Inf)"


@pytest.mark.parametrize("solver", ["hermitian_eig", "general_eig"])
def test_non_finite_input_fails_before_any_kernel(solver, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a kernel ran on non-finite input")

    monkeypatch.setattr(eigensolvers, "_jacobi", no_kernel)
    monkeypatch.setattr(eigensolvers, "_qr_eig", no_kernel)
    solve = getattr(eigensolvers, solver)
    stack = np.stack([_random_hermitian(np.random.default_rng(74), 4) for _ in range(6)])
    stack[5, 0, 0] = np.inf
    stack[3, 2, 1] = stack[3, 1, 2] = complex(0.0, np.nan)
    cases = [
        (np.array([[np.nan]]), "matrix"),  # used to return nan silently
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "matrix"),
        (np.array([[[1.0, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]]), "stack member 1"),
        (stack, "stack member 3"),  # the lowest non-finite member is named
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        for m, where in cases:
            with pytest.raises(EigenConvergenceError) as err:
                solve(m)
            assert str(err.value) == f"{where} has a non-finite entry (NaN or Inf)"


def test_general_two_dimensional_input_and_shapes():
    m = _general_member(np.random.default_rng(73), 4, "complex")
    w = general_eig(m)
    assert w.shape == (4,) and _same_bits(general_eig(m[None])[0], w)
    assert _same_bits(general_eig(m.real), general_eig(m.real + 0j))
    assert general_eig(np.zeros((0, 3, 3))).shape == (0, 3)
    assert general_eig(np.zeros((2, 0, 0))).shape == (2, 0)
    assert hermitian_eig(np.zeros((0, 3, 3))).values.shape == (0, 3)
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros((1, 1, 2, 2))):
        with pytest.raises(ValueError) as general_err:
            general_eig(bad)
        with pytest.raises(ValueError) as hermitian_err:
            hermitian_eig(bad)
        assert str(general_err.value) == str(hermitian_err.value)
