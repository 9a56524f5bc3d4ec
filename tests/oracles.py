"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the block-circulant
matrix is assembled entry by entry from the tensor data, the largest singular
value comes from power iteration, and the quadratic form is summed directly.
The one-matrix cyclic Jacobi and the one-matrix Hessenberg + shifted QR are
kept here as the references the stacked solvers must match bit for bit, the
complex-kernel forward DFT as the reference for the real-arithmetic one in
``to_fourier``, the slice-major inverse DFT as the reference for the
tube-major one in ``from_fourier``, and the serial trial loop as the
reference for the lockstep windows of ``run_campaign``.
"""

import numpy as np


def brute_bcirc(data: np.ndarray) -> np.ndarray:
    """Assemble the block-circulant unfolding by explicit entry loops."""
    n1, n2, n3 = data.shape
    out = np.zeros((n1 * n3, n2 * n3), dtype=data.dtype)
    for r in range(n3):
        for c in range(n3):
            k = (r - c) % n3
            for i in range(n1):
                for j in range(n2):
                    out[r * n1 + i, c * n2 + j] = data[i, j, k]
    return out


def power_iteration_norm(m: np.ndarray, iters: int = 2000, seed: int = 0) -> float:
    """Largest singular value via power iteration on m^T m (SVD-free)."""
    rng = np.random.default_rng(seed)
    g = m.conj().T @ m
    v = rng.normal(size=g.shape[0]).astype(complex)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))


def direct_inner_product(x: np.ndarray, y: np.ndarray) -> float:
    """Plain summation of entrywise products."""
    total = 0.0
    for idx in np.ndindex(x.shape):
        total += x[idx] * y[idx]
    return float(total)


def quadratic_form_min(a, n_samples: int = 1000, seed: int = 0) -> float:
    """Minimum of <X, A*X> / ||X||^2 over random lateral slices X.

    Samples the defining quadratic form of positive semidefiniteness; used to
    cross-check slice-eigenvalue verdicts.
    """
    from ttensor import Tensor3, inner_product, t_product

    rng = np.random.default_rng(seed)
    n, _, n3 = a.shape
    worst = np.inf
    for _ in range(n_samples):
        x = Tensor3(rng.uniform(-1.0, 1.0, size=(n, 1, n3)))
        val = inner_product(x, t_product(a, x))
        norm2 = inner_product(x, x)
        worst = min(worst, val / norm2)
    return float(worst)


def jacobi_eig_reference(m, max_sweeps: int = 100):
    """Cyclic Jacobi on one Hermitian matrix, one rotation at a time.

    The one-matrix form of ``ttensor.hermitian_eig``, rotation by rotation in
    scalar arithmetic: the stacked solver must reproduce its values and
    vectors bit for bit.  Returns ``(values ascending, vectors)``.
    """
    from ttensor import EigenConvergenceError, NotSymmetricError

    a = np.array(m, dtype=complex)
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    herm_residual = float(np.linalg.norm(a - a.conj().T))
    if herm_residual > 1e-9 * (1.0 + norm):
        raise NotSymmetricError(
            f"matrix is not Hermitian: residual {herm_residual:.3e} "
            f"exceeds {1e-9:.1e} * (1 + ||M||_F)"
        )
    a = 0.5 * (a + a.conj().T)
    v = np.eye(n, dtype=complex)
    if n == 1 or norm == 0.0:
        return np.diag(a).real.copy(), v

    def max_offdiag():
        return float(np.abs(a[~np.eye(n, dtype=bool)]).max())

    threshold = 1e-13 * norm
    for _ in range(max_sweeps):
        if max_offdiag() <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, v, p, q, 0.5 * threshold)
    else:
        if not max_offdiag() <= threshold:
            raise EigenConvergenceError(
                f"Jacobi sweep budget exhausted ({max_sweeps} sweeps); "
                f"final off-diagonal max {max_offdiag():.3e} > {threshold:.3e}"
            )
    vals = np.diag(a).real
    order = np.argsort(vals, kind="stable")
    return vals[order].copy(), v[:, order].copy()


def _jacobi_rotate(a, v, p, q, skip):
    b = a[p, q]
    ab = abs(b)
    if ab <= skip:
        return
    phase = b / ab
    tau = (a[q, q].real - a[p, p].real) / (2.0 * ab)
    if tau >= 0:
        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    # rotation J: J[p,p] = J[q,q] = c, J[p,q] = s*phase, J[q,p] = -s*conj(phase);
    # apply A <- J^H A J and accumulate V <- V J
    sp = s * phase
    spc = s * phase.conjugate()
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - sp * row_q
    a[q, :] = spc * row_p + c * row_q
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - spc * col_q
    a[:, q] = sp * col_p + c * col_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vcol_p = v[:, p].copy()
    vcol_q = v[:, q].copy()
    v[:, p] = c * vcol_p - spc * vcol_q
    v[:, q] = sp * vcol_p + c * vcol_q


def general_eig_reference(m, iter_per_eigenvalue: int = 30):
    """Hessenberg reduction plus shifted QR on one matrix, in scalar steps.

    The one-matrix form of ``ttensor.general_eig``: eigenvalues in the order
    they deflate from the bottom of the active block, a 2x2 block giving both
    roots of its characteristic polynomial.  The stacked solver must
    reproduce its values, order included, bit for bit, and its errors.
    """
    from ttensor import EigenConvergenceError

    h = _hessenberg(np.array(m, dtype=complex))
    n = h.shape[0]
    norm = float(np.linalg.norm(h))
    if n == 0:
        return np.zeros(0, dtype=complex)
    if norm == 0.0:
        return np.zeros(n, dtype=complex)
    tol = 1e-13 * norm

    eigs = []
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


def _hessenberg(m):
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


def _eig2(a, b, c, d):
    mid = 0.5 * (a + d)
    disc = np.sqrt(complex(0.25 * (a - d) ** 2 + b * c))
    return complex(mid + disc), complex(mid - disc)


def _wilkinson_shift(h, end):
    a, b = h[end - 2, end - 2], h[end - 2, end - 1]
    c, d = h[end - 1, end - 2], h[end - 1, end - 1]
    w1, w2 = _eig2(a, b, c, d)
    return w1 if abs(w1 - d) <= abs(w2 - d) else w2


def _qr_step(h, lo, end, mu):
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


def conjugate_pair_worst_reference(slices):
    """``(residual, i, j)`` of the worst conjugate pair, one pair at a time.

    Slice 0 is measured against its own conjugate as ``(0, 0)``, then pairs
    ``j = n3 - i`` for ``i = 1 .. n3//2``; a later pair replaces the worst
    only when it is strictly worse, so the lowest index wins ties.
    """
    n3 = len(slices)
    worst = (0.0, 0, 0)
    r0 = float(np.abs(slices[0].imag).max())
    if r0 > worst[0]:
        worst = (r0, 0, 0)
    for i in range(1, n3 // 2 + 1):
        j = n3 - i
        r = float(np.abs(slices[j] - slices[i].conj()).max())
        if r > worst[0]:
            worst = (r, i, j)
    return worst


def forward_dft_reference(data):
    """Forward DFT of an ``(n1, n2, n3)`` array along its tubes, slices first.

    The complex einsum ``"kt,ijt->kij"`` over the DFT kernel, which promotes
    real data to complex: the form ``to_fourier`` had before it transformed
    real tensors in real arithmetic, which it must still match bit for bit.
    """
    n3 = data.shape[2]
    j = np.arange(n3)
    kernel = np.exp(-2j * np.pi / n3 * np.outer(j, j))
    return np.einsum("kt,ijt->kij", kernel, data)


def inverse_dft_slice_major(slices):
    """Inverse DFT of ``(n3, n1, n2)`` slices in the slice-major layout.

    The einsum ``"kt,tij->ijk"`` over the conjugate DFT kernel, divided by
    ``n3``, real part: the form ``from_fourier`` had before it laid the
    slices out tube-major, which it must still match bit for bit.
    """
    n3 = len(slices)
    j = np.arange(n3)
    kernel = np.exp(-2j * np.pi / n3 * np.outer(j, j)).conj()
    return (np.einsum("kt,tij->ijk", kernel, slices) / n3).real


def run_campaign_serial(theorem_id, n=3, n3=3, trials=200, seed=0, tol=None,
                        mode="corrected", params=None):
    """``ttensor.run_campaign`` as one serial loop over the trials.

    Each trial runs on the calling thread in its own memo scope, in trial
    order, with no batcher, so every eigensolver call solves its own stack
    alone; the first failing trial's exception propagates.  The lockstep
    windows must reproduce its reports byte for byte, and its exceptions.
    """
    from ttensor import campaigns, core

    trial_fn = campaigns._REGISTRY[theorem_id]
    tol = campaigns.DEFAULT_TOL if tol is None else tol
    params = dict(params or {})
    certificates = []
    for trial in range(trials):
        with core._trial_memo():
            certificates.extend(
                trial_fn(trial, core.RngStream(seed, trial), n, n3, tol, mode, params)
            )
    return campaigns._campaign_result(theorem_id, n, n3, trials, seed, mode, certificates)
