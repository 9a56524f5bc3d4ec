"""Tensor spectra and tensor functions.

t-eigenvalues are the eigenvalues of the block-circulant unfolding, computed
slice-by-slice in the Fourier domain.  Tensor functions (real powers, square
root, absolute value) act on the Hermitian eigendecomposition of each Fourier
slice.  For real tensors only slices ``0 .. n3//2`` are decomposed, all of them
in one stacked solver call; the rest are mirrored as complex conjugates, which
makes every function output exactly real after the inverse transform.

The slice spectra of different tensors are independent, so a caller that will
need several of them can have them solved in one stacked call first:
:func:`_solve_ahead` builds the very stacks that :func:`t_power`,
:func:`_abs_power`, :func:`ttensor.algebra.is_t_psd`, the Loewner
certificates and :func:`t_eigenvalues` will ask for, and solves them together
inside a per-trial memo scope (:func:`ttensor.core._trial_memo`), where the
later calls find them stored.  A certifier calls it once per wave of
independent solves, so a campaign trial makes one solver call per wave rather
than one per tensor, and the lockstep batcher still merges each wave across
the trials of a window.  Outside a memo scope it does nothing.  A hint only
moves work earlier: the later calls compute exactly what they would have, and
a missing or stale hint costs speed, never a different result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LoewnerVerdict, _psd_stack, is_symmetric, loewner_ge, t_product
from .core import _MEMO, Tensor3, _as_generator, gen_random, transpose
from .eigensolvers import HermitianEigen, general_eig, hermitian_eig
from .errors import (
    HypothesisViolationError,
    NotSymmetricError,
    NotTPSDError,
    ShapeMismatchError,
    SingularTensorError,
    TtensorError,
)
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
_CONJUGATE_TOL = 1e-12


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
    if _hermitian_spectrum(a):
        w = hermitian_eig(_psd_stack(a)).values.astype(complex)
    else:
        w = general_eig(half)
    # slice k, then its conjugate partner n3 - k when that is another slice
    k = np.arange(len(half))
    keep = np.stack([np.full(len(k), True), (0 < k) & (k < a.n3 - k)], axis=1)
    values = np.stack([w, w.conj()], axis=1)[keep].ravel()
    provenance = np.repeat(np.stack([k, a.n3 - k], axis=1)[keep], a.n1)
    return TEigenSpectrum(values, provenance)


def _hermitian_spectrum(a) -> bool:
    """Whether :func:`t_eigenvalues` takes ``a``'s spectrum from the
    Hermitian solver: a real tensor, symmetric within ``PREDICATE_TOL``."""
    return isinstance(a, Tensor3) and bool(is_symmetric(a))


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
    from scipy.optimize import linear_sum_assignment  # deferred: scipy loads slowly

    cost = np.abs(u[:, None] - v[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# tensor functions through Fourier-slice eigendecompositions
# ---------------------------------------------------------------------------

def _power_stack(a: Tensor3) -> np.ndarray:
    """The stack :func:`t_power` decomposes: Fourier slices 0..n3//2 of
    ``a``, Hermitian-symmetrized.

    Self-conjugate slices are clamped to their real symmetric part: for a
    symmetric real tensor they are real in exact arithmetic, and dropping the
    roundoff imaginary junk here keeps every function output exactly
    conjugate-symmetric after mirroring.
    """
    half = to_fourier(a).half().copy()
    real_idx = _self_conjugate_indices(a.n3)
    half[real_idx] = half[real_idx].real
    return 0.5 * (half + _herm_t(half))


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
    eigs = hermitian_eig(_power_stack(a))
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
    return t_power(_abs_gram(x), 0.5 * r)


def _abs_gram(x: Tensor3) -> Tensor3:
    """The symmetrized Gram ``x^T * x`` whose powers give ``|x|^r``."""
    gram = t_product(transpose(x), x)
    return 0.5 * (gram + transpose(gram))


def _solve_ahead(*stacks, psd=(), order=(), power=(), absolute=(), spectra=()) -> None:
    """Solve now, in one stacked Hermitian solver call, the slice spectra
    that later calls in the same memo scope will ask for.

    Besides the raw ``stacks``, each keyword names the calls to prepare:
    ``psd`` for :func:`ttensor.algebra.is_t_psd` of each tensor (and for the
    Loewner certificates, given their gap tensor), ``order`` for
    :func:`ttensor.algebra.loewner_ge` of each pair ``(a, b)``, ``power`` for
    :func:`t_power` of each tensor, ``absolute`` for :func:`_abs_power` of
    each tensor and ``spectra`` for :func:`t_eigenvalues` of each tensor that
    takes the Hermitian solver.  Each stack is built by the very function that
    call uses, so the later call finds every member stored in the memo.

    Outside a memo scope nothing is stored for later, so nothing is built or
    solved.  An error while building or solving (a shape mismatch, a
    non-finite slice) is swallowed: the memo never stores one, so the later
    call raises it again at its own point in program order.
    """
    if _MEMO.get() is None:
        return
    try:
        stacks = [*stacks, *map(_psd_stack, psd)]
        stacks += [_psd_stack(a - b) for a, b in order]
        stacks += map(_power_stack, power)
        stacks += [_power_stack(_abs_gram(x)) for x in absolute]
        stacks += [_psd_stack(t) for t in spectra if _hermitian_spectrum(t)]
        if stacks and len({s.shape[1:] for s in stacks}) == 1:
            hermitian_eig(np.concatenate(stacks))
    except TtensorError:
        pass


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
    _require_conjugate(p, q)

    sa = to_fourier(a).half()
    sb = to_fourier(b).half()
    grams = _young_grams(sa, sb)
    # self-conjugate slices are clamped to their real parts, in real arithmetic
    for k in _self_conjugate_indices(a.n3):
        for g, real_g in zip(grams, _young_grams(sa[k].real, sb[k].real)):
            g[k] = real_g
    grams = np.concatenate(grams)
    ab_t = t_product(a, transpose(b))
    _solve_ahead(grams, absolute=[a, b, ab_t])
    e = hermitian_eig(grams)  # |A_k B_k^H| = V sqrt(w) V^H
    e_c, e_a, e_b = map(HermitianEigen, np.split(e.values, 3), np.split(e.vectors, 3))

    def power(e, r):  # V clip(w)^r V^H per slice
        return (e.vectors * np.clip(e.values, 0.0, None)[:, None, :] ** r) @ _herm_t(e.vectors)
    d = power(e_a, p / 2) / p + power(e_b, q / 2) / q
    e_d = hermitian_eig(0.5 * (d + _herm_t(d)))
    u = _assemble_real_from_half(e_c.vectors @ _herm_t(e_d.vectors), a.n3)
    rhs = (1.0 / p) * _abs_power(a, p) + (1.0 / q) * _abs_power(b, q)
    conjugated = t_product(t_product(transpose(u), t_abs(ab_t)), u)
    verdict = loewner_ge(rhs, 0.5 * (conjugated + transpose(conjugated)), tol)
    return u, verdict


def _require_conjugate(p: float, q: float) -> None:
    """Require conjugate exponents: ``p, q > 1`` and ``1/p + 1/q = 1`` within
    ``_CONJUGATE_TOL``, else :class:`HypothesisViolationError`.

    The one exponent check of the Young and Hoelder statements.  For the
    Hoelder bounds it also makes the tube-count prefactor
    ``n3^(1/(2p) + 1/(2q) - 1/2)`` identically 1, so they leave it out.
    """
    if not (p > 1 and q > 1 and abs(1.0 / p + 1.0 / q - 1.0) <= _CONJUGATE_TOL):
        raise HypothesisViolationError(f"exponents p={p}, q={q} are not conjugate")


def _young_grams(sa, sb):
    """``(P^H P, A^H A, B^H B)`` with ``P = A B^H``, per slice or per stack member."""
    prod = sa @ _herm_t(sb)
    return _herm_t(prod) @ prod, _herm_t(sa) @ sa, _herm_t(sb) @ sb
