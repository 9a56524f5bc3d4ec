"""Dense eigensolvers implemented in-repo.

Two kernels back everything spectral in this package:

* :func:`hermitian_eig`: cyclic Jacobi rotations on a Hermitian matrix, run
  until every off-diagonal magnitude drops below ``1e-13 * ||M||_F`` (at most
  100 sweeps).  Returns ascending eigenvalues with a unitary eigenvector
  matrix.  It also takes a ``(b, n, n)`` stack, such as the Fourier slices of
  a tensor, and solves every member in one pass: each rotation step is one
  array operation across the stack, with a per-member mask for members that
  have converged or whose rotation is skipped.  The rotations keep the cyclic
  ``(p, q)`` row order of the one-matrix method, so every member's result is
  bit-for-bit what solving it alone gives.
* :func:`general_eig`: Householder reduction to upper Hessenberg form
  followed by explicitly shifted QR iteration with Wilkinson shifts and
  subdiagonal deflation at ``1e-13 * ||H||_F``.  Returns all eigenvalues of a
  general complex matrix (order unspecified).

Both are plain sequential numpy, so results are bit-reproducible.

Inside a per-trial memo scope (:func:`ttensor.core._trial_memo`),
:func:`hermitian_eig` remembers each decomposition keyed by
``("eig", n, max_sweeps, bytes of the complex128 matrix)``, one entry per
stack member, and returns the stored, read-only :class:`HermitianEigen` when
exactly the same matrix comes back; only members not yet stored are solved,
a member repeated within one stack is solved once, and errors are never
stored.  Campaigns open one scope per trial, because one trial often
decomposes the same Fourier slice several times (a tensor's power at several
exponents, a PSD check followed by a power).  A scope holds about one
decomposition per distinct slice matrix and is freed when the trial ends.
Outside a scope every call solves afresh.  There is no setting: a hit returns
the very result the kernel would have computed.

The members :func:`hermitian_eig` does solve go to the Jacobi kernel through
the lockstep batcher (:func:`ttensor.core._batched`).  Inside a campaign
window, the stacks of the window's trials are merged into one kernel call;
since every member's result is independent of the rest of its stack, each
trial gets the bits it would get alone.  Outside a campaign the kernel is
called directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _MEMO, _batched
from .errors import EigenConvergenceError, NotSymmetricError

__all__ = ["HermitianEigen", "hermitian_eig", "general_eig"]

_OFFDIAG_FACTOR = 1e-13
_MAX_SWEEPS = 100
_HERMITIAN_PRE_TOL = 1e-9


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues ascending, eigenvectors as matching unitary columns.

    For a ``(b, n, n)`` input, ``values`` is ``(b, n)`` and ``vectors`` is
    ``(b, n, n)``, one decomposition per stack member.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_square_complex(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_eig(m, max_sweeps: int = _MAX_SWEEPS) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix, or of each member of a
    ``(b, n, n)`` stack, by cyclic Jacobi.

    Every matrix must be Hermitian within ``1e-9 * (1 + ||M||_F)``; it is
    symmetrized before iterating.  A stack with a non-Hermitian member reports
    the first such member.  Ties in the ascending eigenvalue sort are broken
    by original position (stable sort), which keeps the output deterministic
    across platforms.  Inside a per-trial memo scope a repeated matrix returns
    the stored, read-only result.
    """
    a = np.array(m, dtype=complex, order="C")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    memo = _MEMO.get()
    if memo is None:
        values, vectors = _batched(_jacobi, stack, max_sweeps)
    else:
        keys = [("eig", stack.shape[1], max_sweeps, s.tobytes()) for s in stack]
        todo = {key: i for i, key in enumerate(keys) if key not in memo}
        if todo:
            values, vectors = _batched(_jacobi, stack[list(todo.values())], max_sweeps)
            values.flags.writeable = False
            vectors.flags.writeable = False
            for j, key in enumerate(todo):
                memo[key] = HermitianEigen(values[j], vectors[j])
        if a.ndim == 2:
            return memo[keys[0]]
        values = np.stack([memo[key].values for key in keys])
        vectors = np.stack([memo[key].vectors for key in keys])
    if a.ndim == 2:
        return HermitianEigen(values[0], vectors[0])
    return HermitianEigen(values, vectors)


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Per-member ``np.linalg.norm``, with the same BLAS dot products."""
    flat = a.reshape(a.shape[0], -1)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _jacobi(a: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on a ``(b, n, n)`` stack; ``(values, vectors)`` stacks."""
    b, n, _ = a.shape
    norm = _frobenius(a)
    herm_residual = _frobenius(a - a.conj().transpose(0, 2, 1))
    bad = np.flatnonzero(herm_residual > _HERMITIAN_PRE_TOL * (1.0 + norm))
    if bad.size:
        raise NotSymmetricError(
            f"matrix is not Hermitian: residual {herm_residual[bad[0]]:.3e} "
            f"exceeds {_HERMITIAN_PRE_TOL:.1e} * (1 + ||M||_F)"
        )
    a = 0.5 * (a + a.conj().transpose(0, 2, 1))
    v = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
    threshold = _OFFDIAG_FACTOR * norm
    live = np.arange(b if n > 1 else 0)  # members still sweeping
    for _ in range(max_sweeps):
        live = live[~(_max_offdiag(a[live]) <= threshold[live])]
        if not live.size:
            break
        sub_a, sub_v = a[live], v[live]
        skip = 0.5 * threshold[live]
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(sub_a, sub_v, p, q, skip)
        a[live] = sub_a
        v[live] = sub_v
    else:
        off = _max_offdiag(a[live])
        failed = np.flatnonzero(~(off <= threshold[live]))
        if failed.size:
            k = failed[0]
            raise EigenConvergenceError(
                f"Jacobi sweep budget exhausted ({max_sweeps} sweeps); "
                f"final off-diagonal max {off[k]:.3e} > {threshold[live[k]]:.3e}"
            )

    vals = np.diagonal(a, axis1=1, axis2=2).real
    order = np.argsort(vals, axis=1, kind="stable")
    return np.take_along_axis(vals, order, 1), np.take_along_axis(v, order[:, None, :], 2)


@lru_cache(maxsize=None)
def _offdiag_mask(n: int) -> np.ndarray:
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _max_offdiag(a: np.ndarray) -> np.ndarray:
    """Largest off-diagonal magnitude of each member of a stack."""
    return np.abs(a[:, _offdiag_mask(a.shape[1])]).max(axis=1, initial=0.0)


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int, skip: np.ndarray) -> None:
    """One Jacobi rotation in the ``(p, q)`` plane of every member of ``a``
    whose ``|a[p, q]|`` exceeds its ``skip``; updates ``a`` and ``v`` in place."""
    b = a[:, p, q]
    ab = np.hypot(b.real, b.imag)  # bit-equal to the scalar abs(); np.abs is not
    on = ~(ab <= skip)
    if not on.all():
        idx = np.flatnonzero(on)
        if idx.size:
            sub_a, sub_v = a[idx], v[idx]
            _rotate(sub_a, sub_v, p, q, skip[idx])
            a[idx] = sub_a
            v[idx] = sub_v
        return
    phase = (b / ab)[:, None]
    tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * ab)
    # t = 1 / (tau + root) for tau >= 0, else -1 / (-tau + root): the same
    # bits without evaluating the branch not taken
    t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
    s = t[:, None] * c

    # rotation J: J[p,p] = J[q,q] = c, J[p,q] = s*phase, J[q,p] = -s*conj(phase);
    # apply A <- J^H A J and accumulate V <- V J
    sp = s * phase
    spc = s * phase.conj()
    row_p = a[:, p, :].copy()
    row_q = a[:, q, :].copy()
    a[:, p, :] = c * row_p - sp * row_q
    a[:, q, :] = spc * row_p + c * row_q
    col_p = a[:, :, p].copy()
    col_q = a[:, :, q].copy()
    a[:, :, p] = c * col_p - spc * col_q
    a[:, :, q] = sp * col_p + c * col_q
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a[:, p, p] = a[:, p, p].real
    a[:, q, q] = a[:, q, q].real

    vcol_p = v[:, :, p].copy()
    vcol_q = v[:, :, q].copy()
    v[:, :, p] = c * vcol_p - spc * vcol_q
    v[:, :, q] = sp * vcol_p + c * vcol_q


# ---------------------------------------------------------------------------
# general complex eigenvalues: Hessenberg + shifted QR
# ---------------------------------------------------------------------------

def general_eig(m, iter_per_eigenvalue: int = 30) -> np.ndarray:
    """All eigenvalues of a general complex square matrix, order unspecified."""
    h = _hessenberg(_as_square_complex(m))
    n = h.shape[0]
    norm = float(np.linalg.norm(h))
    if n == 0:
        return np.zeros(0, dtype=complex)
    if norm == 0.0:
        return np.zeros(n, dtype=complex)
    tol = _OFFDIAG_FACTOR * norm

    eigs: list[complex] = []
    end = n
    budget = iter_per_eigenvalue * n
    used = 0
    stall = 0
    while end > 0:
        for i in range(1, end):
            if abs(h[i, i - 1]) <= tol:
                h[i, i - 1] = 0.0
        lo = end - 1
        while lo > 0 and h[lo, lo - 1] != 0.0:
            lo -= 1
        if lo == end - 1:
            eigs.append(complex(h[lo, lo]))
            end -= 1
            stall = 0
            continue
        if lo == end - 2:
            w1, w2 = _eig2(h[lo, lo], h[lo, lo + 1], h[lo + 1, lo], h[lo + 1, lo + 1])
            eigs.extend([w1, w2])
            end -= 2
            stall = 0
            continue

        used += 1
        stall += 1
        if used > budget:
            raise EigenConvergenceError(
                f"QR iteration budget exhausted ({budget} steps for n={n}); "
                f"active block [{lo}, {end})"
            )
        if stall % 12 == 0:
            # exceptional shift to break symmetric stagnation cycles
            mu = h[end - 1, end - 1] + 0.75 * abs(h[end - 1, end - 2])
        else:
            mu = _wilkinson_shift(h, end)
        _qr_step(h, lo, end, mu)

    return np.asarray(eigs, dtype=complex)


def _hessenberg(m: np.ndarray) -> np.ndarray:
    h = m.copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1:, k]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue
        v = x.copy()
        alpha = v[0]
        phase = alpha / abs(alpha) if alpha != 0 else 1.0
        v[0] += phase * nx
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        v /= nv
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h


def _eig2(a, b, c, d) -> tuple[complex, complex]:
    mid = 0.5 * (a + d)
    disc = np.sqrt(complex(0.25 * (a - d) ** 2 + b * c))
    return complex(mid + disc), complex(mid - disc)


def _wilkinson_shift(h: np.ndarray, end: int) -> complex:
    a, b = h[end - 2, end - 2], h[end - 2, end - 1]
    c, d = h[end - 1, end - 2], h[end - 1, end - 1]
    w1, w2 = _eig2(a, b, c, d)
    return w1 if abs(w1 - d) <= abs(w2 - d) else w2


def _qr_step(h: np.ndarray, lo: int, end: int, mu: complex) -> None:
    """One explicit shifted QR sweep on the active window ``[lo, end)``."""
    idx = np.arange(lo, end)
    h[idx, idx] -= mu
    rotations = []
    for k in range(lo, end - 1):
        x, y = h[k, k], h[k + 1, k]
        r = np.hypot(abs(x), abs(y))
        if r == 0.0:
            rotations.append((1.0 + 0.0j, 0.0 + 0.0j))
            continue
        g00 = x.conjugate() / r
        g01 = y.conjugate() / r
        rotations.append((g00, g01))
        row_k = h[k, k:end].copy()
        row_k1 = h[k + 1, k:end].copy()
        h[k, k:end] = g00 * row_k + g01 * row_k1
        h[k + 1, k:end] = -g01.conjugate() * row_k + g00.conjugate() * row_k1
    for k in range(lo, end - 1):
        g00, g01 = rotations[k - lo]
        col_k = h[lo:end, k].copy()
        col_k1 = h[lo:end, k + 1].copy()
        h[lo:end, k] = col_k * g00.conjugate() + col_k1 * g01.conjugate()
        h[lo:end, k + 1] = -col_k * g01 + col_k1 * g00
    h[idx, idx] += mu
