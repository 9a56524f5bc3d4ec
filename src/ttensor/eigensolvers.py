"""Dense eigensolvers implemented in-repo: the source of every slice spectrum.

The module owns two public entry points and their kernels:

* :func:`hermitian_eig`: cyclic Jacobi (:func:`_jacobi`) on a Hermitian
  matrix or ``(b, n, n)`` stack, until every off-diagonal magnitude is below
  ``1e-13 * ||M||_F`` (at most 100 sweeps); ascending eigenvalues, ties in
  input order, with unitary eigenvectors.
* :func:`general_eig`: Householder reduction to Hessenberg form and shifted
  QR (:func:`_qr_eig`), Wilkinson shifts with an exceptional shift every
  12th stalled step, deflation at ``1e-13 * ||H||_F``; all eigenvalues of a
  general complex matrix or stack, in the order they deflate.

Invariants:

* A member's result does not depend on its stack: it is bit for bit what
  the member gets alone, so callers may join independent stacks in one call.
* No input is written; a C-ordered complex stack is read without a copy.
  Nothing is cached.
* Results scale exactly with powers of two while entries stay normal:
  ``general_eig(2**k M)`` is ``2**k general_eig(M)`` bit for bit, and
  :func:`hermitian_eig`'s values likewise, with the same vectors (each
  member is solved at unit scale).

Errors: a NaN or infinite entry raises :class:`EigenConvergenceError`
before any iteration, as does a member out of its budget (the lowest such
member is named); a non-square input raises :class:`ValueError`.  Only
:func:`hermitian_eig` raises :class:`NotSymmetricError`, for a member not
Hermitian within ``1e-9 * (1 + ||M||_F)``.

The Jacobi kernel trusts its callers: :func:`_jacobi` takes an exactly
Hermitian, finite stack and each member's Frobenius norm, and neither
symmetrizes nor measures it.  :func:`hermitian_eig`, the one entry for
matrices from outside the library, takes the norm once (for its Hermitian
bound and the threshold alike) and symmetrizes once;
:func:`ttensor.core._jacobi_spectra` passes a stack's Hermitian half slices,
exact by construction, and their norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _frobenius
from .errors import EigenConvergenceError, NotSymmetricError

__all__ = ["HermitianEigen", "hermitian_eig", "general_eig"]

_OFFDIAG_FACTOR = 1e-13
_MAX_SWEEPS = 100
_QR_STEPS_PER_EIGENVALUE = 30
_HERMITIAN_PRE_TOL = 1e-9


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues ascending, eigenvectors as matching unitary columns.

    For a ``(b, n, n)`` input, ``values`` is ``(b, n)`` and ``vectors`` is
    ``(b, n, n)``, one decomposition per stack member.
    """

    values: np.ndarray
    vectors: np.ndarray


def _herm_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _square_stack(m) -> tuple[np.ndarray, object]:
    """``m``, a square matrix or ``(b, n, n)`` stack, as a C-ordered complex
    ``(b, n, n)`` stack (``b = 1`` for a matrix; no copy if ``m`` is one
    already), and the index that takes a result of the stack back to ``m``'s
    form: ``0`` for a matrix, ``...`` for a stack.

    A NaN or infinite entry raises :class:`EigenConvergenceError` naming the
    lowest member that holds one.  No iteration converges on such a member,
    so it fails here instead of after its whole iteration budget.
    """
    a = np.asarray(m, dtype=complex, order="C")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        where = "matrix" if a.ndim == 2 else f"stack member {np.argmin(finite.all(axis=(1, 2)))}"
        raise EigenConvergenceError(f"{where} has a non-finite entry (NaN or Inf)")
    return (a, ...) if a.ndim == 3 else (a[None], 0)


def hermitian_eig(m) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix, or of each member of a
    ``(b, n, n)`` stack, by cyclic Jacobi.

    Every matrix must be Hermitian within ``1e-9 * (1 + ||M||_F)``; it is
    symmetrized before iterating.  A stack with a non-Hermitian member reports
    the first such member.  Ties in the ascending eigenvalue sort are broken
    by original position (stable sort), which keeps the output deterministic
    across platforms.
    """
    a, back = _square_stack(m)
    norm = _frobenius(a)
    residual = _frobenius(a - _herm_t(a))
    bad = np.flatnonzero(residual > _HERMITIAN_PRE_TOL * (1.0 + norm))
    if bad.size:
        raise NotSymmetricError(
            f"matrix is not Hermitian: residual {residual[bad[0]]:.3e} "
            f"exceeds {_HERMITIAN_PRE_TOL:.1e} * (1 + ||M||_F)"
        )
    values, vectors = _jacobi(0.5 * (a + _herm_t(a)), norm)
    return HermitianEigen(values[back], vectors[back])


def _jacobi(h: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on a ``(b, n, n)`` stack ``h``; ``(values, vectors)``
    stacks.

    The members must be finite and exactly Hermitian, and ``norm`` holds
    each member's Frobenius norm (its threshold is ``1e-13`` times it); none
    of this is checked or recomputed here.  :func:`hermitian_eig`
    symmetrizes input from outside the library, whose own stacks are
    exactly Hermitian by construction.

    Each member iterates as one ``(2n, n)`` array: the matrix in rows
    ``0..n-1`` and its accumulated eigenvectors in rows ``n..2n-1``, so a
    rotation's column update covers both in one set of array operations.

    Each member and its norm are first multiplied by the power of two that
    brings the member's largest entry part into ``[0.5, 1)``, and its values
    by the inverse at the end, as :func:`_qr_eig` scales: exact, so a
    rotation's ``b / |b|`` neither overflows nor underflows at extreme
    scales, and the vectors do not depend on the scale.
    """
    b, n, _ = h.shape
    _, exponent = np.frexp(np.abs(h.view(float)).max(axis=(1, 2), initial=0.0))
    w = np.empty((b, 2 * n, n), dtype=complex)
    w[:, :n] = np.ldexp(h.view(float), -exponent[:, None, None]).view(complex)
    w[:, n:] = np.eye(n)
    threshold = _OFFDIAG_FACTOR * np.ldexp(norm, -exponent)
    live = np.arange(b if n > 1 else 0)  # members still sweeping
    for _ in range(_MAX_SWEEPS):
        live = live[~(_max_offdiag(w[live, :n]) <= threshold[live])]
        if not live.size:
            break
        sub = w[live]
        skip = 0.5 * threshold[live]
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(sub, p, q, skip)
        w[live] = sub
    else:
        off = _max_offdiag(w[live, :n])
        failed = np.flatnonzero(~(off <= threshold[live]))
        if failed.size:
            k = failed[0]
            raise EigenConvergenceError(
                f"Jacobi sweep budget exhausted ({_MAX_SWEEPS} sweeps); "
                f"final off-diagonal max {off[k]:.3e} > {threshold[live[k]]:.3e}"
            )

    vals = np.ldexp(np.diagonal(w[:, :n], axis1=1, axis2=2).real, exponent[:, None])
    order = np.argsort(vals, axis=1, kind="stable")
    return np.take_along_axis(vals, order, 1), np.take_along_axis(w[:, n:], order[:, None, :], 2)


def _max_offdiag(a: np.ndarray) -> np.ndarray:
    """Largest off-diagonal magnitude of each member of a stack."""
    return np.abs(a[:, ~np.eye(a.shape[1], dtype=bool)]).max(axis=1, initial=0.0)


def _rotate(w: np.ndarray, p: int, q: int, skip: np.ndarray) -> None:
    """One Jacobi rotation in the ``(p, q)`` plane of every member of ``w``
    (matrix rows over eigenvector rows, as in :func:`_jacobi`) whose
    ``|a[p, q]|`` exceeds its ``skip``; updates ``w`` in place.  When some
    members skip, the others are rotated in a copy that is written back."""
    b = w[:, p, q]
    ab = np.hypot(b.real, b.imag)  # bit-equal to the scalar abs(); np.abs is not
    on = np.flatnonzero(~(ab <= skip))  # the members that rotate
    if not on.size:
        return
    every = on.size == len(w)
    if not every:
        out, w, b, ab = w, w[on], b[on], ab[on]
    phase = (b / ab)[:, None]
    tau = (w[:, q, q].real - w[:, p, p].real) / (2.0 * ab)
    # t = 1 / (tau + root) for tau >= 0, else -1 / (-tau + root): the same
    # bits without evaluating the branch not taken
    t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
    s = t[:, None] * c

    # rotation J: J[p,p] = J[q,q] = c, J[p,q] = s*phase, J[q,p] = -s*conj(phase);
    # apply A <- J^H A J and accumulate V <- V J: the rows touch A only, the
    # columns run down A and V together
    sp = s * phase
    spc = s * phase.conj()
    row_p = w[:, p, :].copy()
    row_q = w[:, q, :].copy()
    w[:, p, :] = c * row_p - sp * row_q
    w[:, q, :] = spc * row_p + c * row_q
    col_p = w[:, :, p].copy()
    col_q = w[:, :, q].copy()
    w[:, :, p] = c * col_p - spc * col_q
    w[:, :, q] = sp * col_p + c * col_q
    w[:, p, q] = 0.0
    w[:, q, p] = 0.0
    w[:, p, p] = w[:, p, p].real
    w[:, q, q] = w[:, q, q].real
    if not every:
        out[on] = w


# ---------------------------------------------------------------------------
# general complex eigenvalues: Hessenberg + shifted QR
# ---------------------------------------------------------------------------

def general_eig(m) -> np.ndarray:
    """All eigenvalues of a general complex square matrix, or of each member
    of a ``(b, n, n)`` stack, in the order they deflate.

    A matrix gives ``(n,)`` values and a stack ``(b, n)``.  Each member is
    solved as if alone, so its values and their order do not depend on the
    rest of the stack.  A member that does not converge within
    ``_QR_STEPS_PER_EIGENVALUE * n`` (30 n) QR steps raises
    :class:`EigenConvergenceError`; in a stack, the lowest such member is
    reported.
    """
    a, back = _square_stack(m)
    return _qr_eig(a)[back]


def _qr_eig(a: np.ndarray) -> np.ndarray:
    """Hessenberg reduction and shifted QR on a ``(b, n, n)`` stack; the
    ``(b, n)`` eigenvalues, each member's in the order they deflate.

    Each member keeps its own state: the end of its unreduced part, its QR
    step count and its stall count since the last deflation.  A round scans
    every live member's subdiagonal, deflates the members whose bottom 1x1 or
    2x2 block has split off, and gives every other member one QR step on its
    active window ``[lo, end)``, one array call per distinct window.

    Each member is first multiplied by the power of two that brings its
    largest entry part into ``[0.5, 1)``, and its values by the inverse at
    the end (as LAPACK's ``xLASCL`` scales): exact, so the values of
    ``2**k M`` are ``2**k`` times those of ``M``, and the shifts and the 2x2
    roots neither overflow nor underflow at extreme scales.
    """
    b, n, _ = a.shape
    parts = a.view(float)  # real and imaginary parts side by side
    _, exponent = np.frexp(np.abs(parts).max(axis=(1, 2), initial=0.0))
    h = _hessenberg((parts * np.ldexp(1.0, -exponent)[:, None, None]).view(complex))  # a new array
    norm = _frobenius(h)
    tol = _OFFDIAG_FACTOR * norm
    values = np.zeros((b, n), dtype=complex)
    end = np.full(b, n)
    used = np.zeros(b, dtype=int)
    stall = np.zeros(b, dtype=int)
    budget = _QR_STEPS_PER_EIGENVALUE * n
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
    values.view(float)[:] *= np.ldexp(1.0, exponent)[:, None]
    return values


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


def _hessenberg(h: np.ndarray) -> np.ndarray:
    """Householder reduction of each member of a ``(b, n, n)`` stack to upper
    Hessenberg form, in place (``h`` is returned); a member whose column is
    already zero skips that step."""
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
