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
  followed by explicitly shifted QR iteration with Wilkinson shifts (an
  exceptional shift every 12th step without a deflation) and subdiagonal
  deflation at ``1e-13 * ||H||_F``.  Returns all eigenvalues of a general
  complex matrix, in the order they deflate from the bottom.  It also takes a
  ``(b, n, n)`` stack: each Householder step is one array operation across
  the members whose column is not already zero, and the QR phase keeps each
  member's own active window, step and stall counts.  A round deflates the
  members that can and gives every other member one QR step, one array call
  per distinct window; members leave the live set as they finish.  Products
  of two complex scalars, which numpy's array loops may round differently
  from its scalars, are spelled out in real arithmetic, so every member's
  values, order included, are bit-for-bit what solving it alone gives.

Both are plain numpy with fixed operation order, so results are
bit-reproducible.  Both reject a matrix or stack holding NaN or Inf on entry
with :class:`EigenConvergenceError`, naming the lowest such member, since no
iteration converges on it.

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

Both solvers reach their kernels through the lockstep batcher
(:func:`ttensor.core._batched`): the members :func:`hermitian_eig` does solve
go to the Jacobi kernel, and every :func:`general_eig` stack goes to the QR
kernel.  Inside a campaign window, the stacks of the window's trials are
merged into one kernel call per solver, member shape and budget; since every
member's result is independent of the rest of its stack, each trial gets the
bits it would get alone.  Outside a campaign the kernel is called directly.
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


def _square_stack(m) -> np.ndarray:
    """``m`` as a C-ordered complex matrix or ``(b, n, n)`` stack.

    A NaN or infinite entry raises :class:`EigenConvergenceError` naming the
    lowest member that holds one.  No iteration converges on such a member,
    so it fails here, before the memo and the batcher see it, instead of
    after its whole iteration budget inside a merged campaign call.
    """
    a = np.array(m, dtype=complex, order="C")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        where = "matrix" if a.ndim == 2 else f"stack member {np.argmin(finite.all(axis=(1, 2)))}"
        raise EigenConvergenceError(f"{where} has a non-finite entry (NaN or Inf)")
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
    a = _square_stack(m)
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
    flat = a.reshape(a.shape[0], int(np.prod(a.shape[1:])))
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
    """All eigenvalues of a general complex square matrix, or of each member
    of a ``(b, n, n)`` stack, in the order they deflate.

    A matrix gives ``(n,)`` values and a stack ``(b, n)``.  Each member is
    solved as if alone, so its values and their order do not depend on the
    rest of the stack.  A member that does not converge within
    ``iter_per_eigenvalue * n`` QR steps raises
    :class:`EigenConvergenceError`; in a stack, the lowest such member is
    reported.
    """
    a = _square_stack(m)
    (values,) = _batched(_qr_eig, a if a.ndim == 3 else a[None], iter_per_eigenvalue)
    return values if a.ndim == 3 else values[0]


def _qr_eig(a: np.ndarray, iter_per_eigenvalue: int) -> tuple[np.ndarray]:
    """Hessenberg reduction and shifted QR on a ``(b, n, n)`` stack; ``(values,)``.

    Each member keeps its own state: the end of its unreduced part, its QR
    step count and its stall count since the last deflation.  A round scans
    every live member's subdiagonal, deflates the members whose bottom 1x1 or
    2x2 block has split off, and gives every other member one QR step on its
    active window ``[lo, end)``, one array call per distinct window.
    """
    b, n, _ = a.shape
    h = _hessenberg(a)
    norm = _frobenius(h)
    tol = _OFFDIAG_FACTOR * norm
    values = np.zeros((b, n), dtype=complex)
    end = np.full(b, n)
    used = np.zeros(b, dtype=int)
    stall = np.zeros(b, dtype=int)
    budget = iter_per_eigenvalue * n
    failures: dict[int, str] = {}
    sub_rows = np.arange(1, n)
    live = np.flatnonzero(norm != 0.0) if n else np.arange(0)
    while live.size:
        e = end[live]
        # zero negligible subdiagonals, then find the top of the bottom block
        sub = h[live[:, None], sub_rows, sub_rows - 1]
        inside = sub_rows < e[:, None]
        small = inside & (np.hypot(sub.real, sub.imag) <= tol[live, None])
        member, row = np.nonzero(small)
        h[live[member], sub_rows[row], sub_rows[row] - 1] = 0.0
        split = inside & (small | (sub == 0.0))
        lo = np.where(split, sub_rows, 0).max(axis=1, initial=0)

        one = lo == e - 1
        if one.any():
            m, k = live[one], lo[one]
            values[m, n - e[one]] = h[m, k, k]
        two = lo == e - 2
        if two.any():
            m, k = live[two], lo[two]
            w1, w2 = _eig2(h[m, k, k], h[m, k, k + 1], h[m, k + 1, k], h[m, k + 1, k + 1])
            values[m, n - e[two]] = w1
            values[m, n - e[two] + 1] = w2
        end[live] = e - one - 2 * two
        stall[live[one | two]] = 0

        step = ~(one | two)
        m, k, e = live[step], lo[step], e[step]
        used[m] += 1
        stall[m] += 1
        over = used[m] > budget
        for i in np.flatnonzero(over):
            failures[int(m[i])] = (
                f"QR iteration budget exhausted ({budget} steps for n={n}); "
                f"active block [{k[i]}, {e[i]})"
            )
        end[m[over]] = 0  # out of steps: leaves the live set
        m, k, e = m[~over], k[~over], e[~over]
        if m.size:
            _shifted_qr_steps(h, m, k, e, stall[m] % 12 == 0)
        live = live[end[live] > 0]
    if failures:
        raise EigenConvergenceError(failures[min(failures)])
    return (values,)


def _shifted_qr_steps(h, m, lo, end, exceptional) -> None:
    """One shifted QR step on each member ``m`` of ``h``, on its window
    ``[lo, end)``: a Wilkinson shift, or every 12th stalled step an
    exceptional one to break symmetric stagnation cycles."""
    a, b = h[m, end - 2, end - 2], h[m, end - 2, end - 1]
    c, d = h[m, end - 1, end - 2], h[m, end - 1, end - 1]
    w1, w2 = _eig2(a, b, c, d)
    near = w1 - d
    far = w2 - d
    mu = np.where(np.hypot(near.real, near.imag) <= np.hypot(far.real, far.imag), w1, w2)
    if exceptional.any():
        mu[exceptional] = d[exceptional] + 0.75 * np.hypot(c.real, c.imag)[exceptional]
    base = h.shape[1] + 1
    window = lo * base + end
    for key in np.unique(window):
        same = window == key
        lo_w, end_w = divmod(int(key), base)
        block = h[m[same], lo_w:end_w, lo_w:end_w]
        _qr_step(block, mu[same])
        h[m[same], lo_w:end_w, lo_w:end_w] = block


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Householder reduction of each member of a ``(b, n, n)`` stack to upper
    Hessenberg form; a member whose column is already zero skips that step."""
    h = a.copy()
    n = h.shape[1]
    for k in range(n - 2):
        v = h[:, k + 1:, k].copy()
        alpha = v[:, 0]
        phase = np.ones(len(v), dtype=complex)
        nonzero = alpha != 0
        phase[nonzero] = alpha[nonzero] / np.hypot(alpha.real, alpha.imag)[nonzero]
        v[:, 0] += phase * _frobenius(v)
        nv = _frobenius(v)
        live = np.flatnonzero(nv != 0.0)  # nv is 0 exactly when the column is
        if not live.size:
            continue
        v = v[live] / nv[live, None]
        hl = h[live]
        below = hl[:, k + 1:, k:]
        below -= 2.0 * (v[:, :, None] * np.matmul(v.conj()[:, None, :], below))
        right = hl[:, :, k + 1:]
        right -= 2.0 * (np.matmul(right, v[:, :, None]) * v.conj()[:, None, :])
        hl[:, k + 2:, k] = 0.0
        h[live] = hl
    return h


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y`` in the arithmetic of numpy's complex scalars; the array loop
    may fuse a multiply and an add, which rounds differently."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _eig2(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Both roots of each 2x2 block ``[[a, b], [c, d]]``, elementwise.

    ``np.power`` and :func:`_cmul` give the bits of the scalar expression
    ``0.5 * (a + d) +- sqrt(0.25 * (a - d) ** 2 + b * c)``."""
    mid = 0.5 * (a + d)
    disc = np.sqrt(0.25 * np.power(a - d, 2.0) + _cmul(b, c))
    return mid + disc, mid - disc


def _qr_step(h: np.ndarray, mu: np.ndarray) -> None:
    """One explicit shifted QR sweep on every member of a ``(b, w, w)`` stack
    of active windows, member ``i`` shifted by ``mu[i]``; in place."""
    w = h.shape[1]
    idx = np.arange(w)
    h[:, idx, idx] -= mu[:, None]
    rotations = []
    for k in range(w - 1):
        # r >= |y| > 0: y is a subdiagonal entry of an unreduced window, and
        # earlier rotations of this sweep leave row k + 1 alone
        x, y = h[:, k, k:k + 1], h[:, k + 1, k:k + 1]
        r = np.hypot(np.hypot(x.real, x.imag), np.hypot(y.real, y.imag))
        g00 = x.conj() / r
        g01 = y.conj() / r
        row_k = h[:, k, k:].copy()
        row_k1 = h[:, k + 1, k:].copy()
        h[:, k, k:] = g00 * row_k + g01 * row_k1
        h[:, k + 1, k:] = -g01.conj() * row_k + g00.conj() * row_k1
        rotations.append((g00, g01))
    for k, (g00, g01) in enumerate(rotations):
        col_k = h[:, :, k].copy()
        col_k1 = h[:, :, k + 1].copy()
        h[:, :, k] = col_k * g00.conj() + col_k1 * g01.conj()
        h[:, :, k + 1] = -col_k * g01 + col_k1 * g00
    h[:, idx, idx] += mu[:, None]
