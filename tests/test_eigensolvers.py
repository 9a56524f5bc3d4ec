"""Quality gates for the in-repo eigensolvers, cross-checked against LAPACK."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ttensor import NotSymmetricError, general_eig, hermitian_eig
from ttensor.eigensolvers import _MEMO, _eig_memo


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


def test_memo_returns_stored_read_only_result():
    h = _random_hermitian(np.random.default_rng(4), 4)
    with _eig_memo():
        e1 = hermitian_eig(h)
        e2 = hermitian_eig(h.copy())
        assert e2 is e1
        assert hermitian_eig(h, max_sweeps=50) is not e1
        with pytest.raises(ValueError):
            e1.values[0] = 0.0
        with pytest.raises(ValueError):
            e1.vectors[0, 0] = 0.0
    fresh = hermitian_eig(h)
    assert np.array_equal(fresh.values, e1.values)
    assert np.array_equal(fresh.vectors, e1.vectors)


def test_memo_off_outside_scope():
    h = _random_hermitian(np.random.default_rng(5), 3)
    assert _MEMO.get() is None
    with _eig_memo():
        assert _MEMO.get() == {}
    assert _MEMO.get() is None
    e1, e2 = hermitian_eig(h), hermitian_eig(h)
    assert e1 is not e2
    e1.values[0] = 0.0  # results outside a scope stay private and writable


def test_memo_never_stores_errors():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with _eig_memo():
        for _ in range(3):
            with pytest.raises(NotSymmetricError):
                hermitian_eig(bad)
        assert _MEMO.get() == {}
