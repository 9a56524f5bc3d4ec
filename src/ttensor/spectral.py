"""Tensor spectra and tensor functions.

t-eigenvalues are the eigenvalues of the block-circulant unfolding, computed
slice-by-slice in the Fourier domain.  Tensor functions (real powers, square
root, absolute value) act on the Hermitian eigendecomposition of each Fourier
slice.  For real tensors only slices ``0 .. n3//2`` are decomposed, all of them
in one stacked solver call; the rest are mirrored as complex conjugates, which
makes every function output exactly real after the inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .algebra import LoewnerVerdict, is_symmetric, loewner_ge, t_product
from .core import Tensor3, _as_generator, gen_random, transpose
from .eigensolvers import general_eig, hermitian_eig
from .errors import NotSymmetricError, NotTPSDError, ShapeMismatchError, SingularTensorError
from .fourier import _assemble_real_from_half, _self_conjugate_indices, to_fourier

__all__ = [
    "TEigenSpectrum",
    "t_eigenvalues",
    "t_power",
    "t_abs",
    "gen_orthogonal",
    "young_witness",
    "multiset_distance",
]

_POWER_TOL = 1e-9


@dataclass(frozen=True)
class TEigenSpectrum:
    """All n * n3 t-eigenvalues with the 0-based Fourier slice each came from."""

    values: np.ndarray
    slice_index: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _herm_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def t_eigenvalues(a) -> TEigenSpectrum:
    """t-eigenvalues of a square (real or complex) tensor.

    Real symmetric input goes through the Hermitian solver (real spectrum);
    everything else through the general solver.  As a multiset the result
    equals the spectrum of the block-circulant unfolding.
    """
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"t-eigenvalues require a square tensor, got {a.shape}")
    fa = to_fourier(a)
    if not isinstance(a, Tensor3):
        values = general_eig(fa.slices).ravel()
        return TEigenSpectrum(values, np.repeat(np.arange(a.n3), a.n1))
    half = fa.half()
    if is_symmetric(a):
        w = hermitian_eig(0.5 * (half + _herm_t(half))).values.astype(complex)
    else:
        w = general_eig(half)
    # slice k, then its conjugate partner n3 - k when that is another slice
    k = np.arange(len(half))
    keep = np.stack([np.full(len(k), True), (0 < k) & (k < a.n3 - k)], axis=1)
    values = np.stack([w, w.conj()], axis=1)[keep].ravel()
    provenance = np.repeat(np.stack([k, a.n3 - k], axis=1)[keep], a.n1)
    return TEigenSpectrum(values, provenance)


def multiset_distance(u, v) -> float:
    """Largest matched |difference| under a minimum-cost optimal assignment.

    Complex spectra admit no perturbation-stable total order, so multiset
    comparisons pair values by optimal assignment instead of sorting.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ShapeMismatchError("multisets must have equal cardinality")
    if len(u) == 0:
        return 0.0
    cost = np.abs(u[:, None] - v[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# tensor functions through Fourier-slice eigendecompositions
# ---------------------------------------------------------------------------

def _half_slice_eigs(a: Tensor3):
    """Hermitian eigendecompositions of Fourier slices 0..n3//2, as one stack.

    Self-conjugate slices are clamped to their real symmetric part: for a
    symmetric real tensor they are real in exact arithmetic, and dropping the
    roundoff imaginary junk here keeps every function output exactly
    conjugate-symmetric after mirroring.
    """
    half = to_fourier(a).half().copy()
    real_idx = _self_conjugate_indices(a.n3)
    half[real_idx] = half[real_idx].real
    return hermitian_eig(0.5 * (half + _herm_t(half)))


def t_power(a: Tensor3, r: float) -> Tensor3:
    """Real power of a symmetric positive semidefinite tensor.

    Eigenvalues in ``[-_POWER_TOL * lambda_max, 0)`` are clamped to zero
    (transform roundoff makes tiny negatives inevitable); anything below that
    window is a genuine violation and raises.  Negative exponents additionally
    require strict definiteness: every eigenvalue at least
    ``_POWER_TOL * lambda_max``.  The input must be symmetric within
    ``_POWER_TOL``.
    """
    sym = is_symmetric(a, _POWER_TOL)
    if not sym:
        raise NotSymmetricError(f"t_power requires a symmetric tensor: {sym.reason}")
    eigs = _half_slice_eigs(a)
    lam_max = float(eigs.values.max())
    clamp_floor = _POWER_TOL * max(lam_max, 0.0)
    min_eig = float(eigs.values.min())
    if min_eig < -clamp_floor:
        raise NotTPSDError(
            f"t_power requires positive semidefiniteness: eigenvalue {min_eig:.6e} "
            f"below -{clamp_floor:.3e}"
        )
    if r < 0 and (lam_max <= 0.0 or min_eig < _POWER_TOL * lam_max):
        raise SingularTensorError(
            -1, np.inf,
            f"negative power needs strict definiteness: smallest eigenvalue {min_eig:.3e}",
        )
    w = np.clip(eigs.values, 0.0, None)
    if r == 0:
        pw = np.ones_like(w)
    else:
        pw = np.zeros_like(w)
        pos = w > 0
        pw[pos] = w[pos] ** r
    m = (eigs.vectors * pw[:, None, :]) @ _herm_t(eigs.vectors)
    out = _assemble_real_from_half(0.5 * (m + _herm_t(m)), a.n3)
    return 0.5 * (out + transpose(out))


def t_abs(a: Tensor3) -> Tensor3:
    """Absolute value (a^T * a)^(1/2); symmetric positive semidefinite."""
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"t_abs requires a square tensor, got {a.shape}")
    return _abs_power(a, 1.0)


def _abs_power(x: Tensor3, r: float) -> Tensor3:
    """``|x|^r``, computed as the power ``r / 2`` of the symmetrized Gram
    ``x^T * x``; the one place every ``|X|^r`` in the package is taken."""
    gram = t_product(transpose(x), x)
    return t_power(0.5 * (gram + transpose(gram)), 0.5 * r)


def gen_orthogonal(n: int, n3: int, rng) -> Tensor3:
    """Random orthogonal tensor from slicewise QR of a random tensor.

    QR is taken on Fourier slices 0..n3//2 with the R diagonal sign-normalized
    positive (pins the factor uniquely), conjugate slices mirrored.
    """
    g = _as_generator(rng)
    r = gen_random((n, n, n3), g)
    half = to_fourier(r).half()
    real_idx = _self_conjugate_indices(n3)
    q_half = np.empty_like(half)
    for k, s in enumerate(half):
        q, rr = np.linalg.qr(s.real if k in real_idx else s)
        d = np.diagonal(rr).copy()
        d[d == 0] = 1.0
        q_half[k] = q * (d / np.abs(d))
    return _assemble_real_from_half(q_half, n3)


def young_witness(
    a: Tensor3, b: Tensor3, p: float, q: float, tol: float = _POWER_TOL
) -> tuple[Tensor3, LoewnerVerdict]:
    """Constructive orthogonal witness for the generalized Young inequality.

    For conjugate exponents ``1/p + 1/q = 1`` builds an orthogonal tensor U
    aligning, per Fourier slice, the eigenbasis of ``|A * B^T|`` with that of
    ``|A|^p / p + |B|^q / q``, so that the conjugated absolute value is
    dominated whenever the sorted eigenvalues are.  Returns U and the verdict
    for ``|A|^p / p + |B|^q / q >= U^T * |A * B^T| * U``; a dominance failure
    shows up as a failed verdict rather than an exception.
    """
    if a.shape != b.shape or a.n1 != a.n2:
        raise ShapeMismatchError(
            f"young_witness needs equal square shapes, got {a.shape} and {b.shape}"
        )
    if p <= 0 or q <= 0 or abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ValueError(f"exponents must be conjugate: 1/{p} + 1/{q} != 1")

    sa = to_fourier(a).half()
    sb = to_fourier(b).half()
    grams = _young_grams(sa, sb)
    # self-conjugate slices are clamped to their real parts, in real arithmetic
    for k in _self_conjugate_indices(a.n3):
        for g, real_g in zip(grams, _young_grams(sa[k].real, sb[k].real)):
            g[k] = real_g
    e_c, e_a, e_b = (hermitian_eig(g) for g in grams)  # |A_k B_k^H| = V sqrt(w) V^H

    def power(e, r):  # V clip(w)^r V^H per slice
        return (e.vectors * np.clip(e.values, 0.0, None)[:, None, :] ** r) @ _herm_t(e.vectors)
    d = power(e_a, p / 2) / p + power(e_b, q / 2) / q
    e_d = hermitian_eig(0.5 * (d + _herm_t(d)))
    u = _assemble_real_from_half(e_c.vectors @ _herm_t(e_d.vectors), a.n3)
    rhs = (1.0 / p) * _abs_power(a, p) + (1.0 / q) * _abs_power(b, q)
    conjugated = t_product(t_product(transpose(u), t_abs(t_product(a, transpose(b)))), u)
    verdict = loewner_ge(rhs, 0.5 * (conjugated + transpose(conjugated)), tol)
    return u, verdict


def _young_grams(sa, sb):
    """``(P^H P, A^H A, B^H B)`` with ``P = A B^H``, per slice or per stack member."""
    prod = sa @ _herm_t(sb)
    return _herm_t(prod) @ prod, _herm_t(sa) @ sa, _herm_t(sb) @ sb
