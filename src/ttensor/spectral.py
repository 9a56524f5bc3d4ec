"""Tensor spectra and tensor functions.

t-eigenvalues are the eigenvalues of the block-circulant unfolding, computed
slice-by-slice in the Fourier domain.  Real powers and square roots act on
the Hermitian eigendecomposition of each Fourier slice, and the powers of
the absolute value ``|x|^r = (x^T x)^(r/2)`` on the singular value
decomposition ``U diag(sigma) V^H`` of each slice of ``x``, as
``V diag(sigma^r) V^H``, so the Gram ``x^T x`` is never formed.  For real
tensors only slices ``0 .. n3//2`` are decomposed, all of them in one
stacked call; the rest are mirrored as complex conjugates, which makes
every function output exactly real after the inverse transform.

Fourier slices are independent across slices, across tensors and across
trials (Kilmer & Martin, *Factorization strategies for third-order
tensors*, 2011), so the tensor functions also act on stacks of tensors along
a leading trial axis (:class:`ttensor.core._Stack`): :func:`t_power`,
:func:`t_abs` and :func:`t_eigenvalues` are the one-member cases of
:meth:`_Stack.power`, :meth:`_Stack.abs_power` (each member at its own
exponent) and :meth:`_Stack.eigenvalues`, whose kernels live beside the
stack in :mod:`ttensor.core`.  The stack keeps t-eigenvalues as one array
of values per member; only :func:`t_eigenvalues` builds a
:class:`TEigenSpectrum`, with the slice of each value.  :func:`t_power`
checks its own argument, where the stacked power trusts a certifier's
hypothesis gate.  A wave of
stacks is powered, or takes its t-eigenvalues, in one application on their
:meth:`_Stack.cat`, which starts with the spectra that all of its parts
hold.
:func:`_young_witness` builds the witnesses of a stack of pairs in the
stack algebra: ``|A|^p``, ``|B|^q`` and ``|A B^T|`` are one
:meth:`_Stack.abs_power` of their ``cat``, the spectra of ``|A B^T|`` and
of the right-hand side take one Jacobi call, and the witness is
:meth:`ttensor.core._Stack.align` of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LoewnerVerdict, _asymmetry, _psd_verdicts
from .core import _POWER_TOL, Tensor3, _solve_together, _Stack, gen_random
from .eigensolvers import general_eig
from .errors import NotSymmetricError, NotTPSDError, ShapeMismatchError, _require, _require_tol
from .fourier import _half_size, _parseval_weights, to_fourier

__all__ = [
    "TEigenSpectrum",
    "t_eigenvalues",
    "t_power",
    "t_abs",
    "gen_orthogonal",
    "young_witness",
    "multiset_distance",
]

_CONJUGATE_TOL = 1e-12


@dataclass(frozen=True)
class TEigenSpectrum:
    """All n * n3 t-eigenvalues with the 0-based Fourier slice each came from."""

    values: np.ndarray
    slice_index: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def t_eigenvalues(a) -> TEigenSpectrum:
    """t-eigenvalues of a square (real or complex) tensor.

    Real symmetric input goes through the Hermitian solver (real spectrum);
    everything else through the general solver.  As a multiset the result
    equals the spectrum of the block-circulant unfolding.  ``values`` is the
    caller's own writable array: a real tensor's stack keeps its
    t-eigenvalues read-only and shares them by content, so the result holds
    a copy.
    """
    if isinstance(a, Tensor3):
        values = _Stack.of(a).eigenvalues()[0].copy()
        return TEigenSpectrum(values, np.repeat(_mirrored_slices(a.n3)[1], a.n1))
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"t-eigenvalues require a square tensor, got {a.shape}")
    values = general_eig(to_fourier(a).slices).ravel()
    return TEigenSpectrum(values, np.repeat(np.arange(a.n3), a.n1))


def _mirrored_slices(n3: int) -> tuple[np.ndarray, np.ndarray]:
    """The order of a real tensor's t-eigenvalues: for each half slice
    ``k``, slice ``k``, then its conjugate partner ``n3 - k`` when that is
    another slice.  Returns which of each ``(k, n3 - k)`` is listed, an
    ``(n3//2 + 1, 2)`` mask, and the slices listed, in order."""
    k = np.arange(_half_size(n3))
    keep = np.stack([np.full(len(k), True), _parseval_weights(n3) == 2], axis=1)
    return keep, np.stack([k, n3 - k], axis=1)[keep]


def _mirrored_spectrum(w: np.ndarray, n3: int) -> np.ndarray:
    """All t-eigenvalues from those of the half spectrum, ``w[..., k, :]``
    for slice ``k``, in the order of :func:`_mirrored_slices`: ``(...,
    n * n3)``, for one member or a stack of them."""
    keep, _ = _mirrored_slices(n3)
    return np.stack([w, w.conj()], axis=-2)[..., keep, :].reshape(*w.shape[:-2], -1)


def multiset_distance(u, v) -> float:
    """Largest matched |difference| under the optimal pairing of
    :func:`_matched_distance`.  Both multisets are sorted first, since tied
    optimal pairings can differ in their largest difference, so the result
    does not depend on the order of either multiset."""
    u = np.sort(np.asarray(u, dtype=complex))
    v = np.sort(np.asarray(v, dtype=complex))
    if u.shape != v.shape:
        raise ShapeMismatchError("multisets must have equal cardinality")
    if len(u) == 0:
        return 0.0
    perm, _ = _matched_distance(u, v)
    return float(np.abs(v[perm] - u).max())


def _matched_distance(lam: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, float]:
    """An optimal pairing ``lam[i] -> mu[perm[i]]`` and its distance.

    Real spectra (every imaginary part exactly zero, as for symmetric
    tensors) take the sorted pairing, which is optimal for them
    (Hoffman-Wielandt); complex ones, which admit no perturbation-stable
    total order, take a minimum-cost assignment of the squared differences.
    """
    if not (np.any(lam.imag) or np.any(mu.imag)):
        return _sorted_pairing(lam.real, mu.real)
    from scipy.optimize import linear_sum_assignment  # deferred: scipy loads slowly

    cost = np.abs(mu[None, :] - lam[:, None]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return cols[np.argsort(rows)], float(np.sqrt(cost[rows, cols].sum()))


def _sorted_pairing(lam: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, float]:
    """The ascending-sorted pairing ``lam[i] -> mu[perm[i]]`` of two real
    spectra and its distance."""
    i, j = np.argsort(lam, kind="stable"), np.argsort(mu, kind="stable")
    perm = np.empty_like(i)
    perm[i] = j
    return perm, float(np.sqrt(((mu[j] - lam[i]) ** 2).sum()))


# ---------------------------------------------------------------------------
# tensor functions through Fourier-slice eigendecompositions
# ---------------------------------------------------------------------------

def t_power(a: Tensor3, r: float) -> Tensor3:
    """Real power of a symmetric positive semidefinite tensor.

    Eigenvalues in ``[-_POWER_TOL * lambda_max, 0)`` are clamped to zero
    (transform roundoff makes tiny negatives inevitable); anything below that
    window is a genuine violation and raises.  Negative exponents additionally
    require strict definiteness: every eigenvalue at least
    ``_POWER_TOL * lambda_max``.  The input must be symmetric within
    ``_POWER_TOL``, and the exponent finite (else :class:`ValueError`).
    """
    x = _Stack.of(a)
    reason = _asymmetry(x, _POWER_TOL)[0]
    if reason:
        raise NotSymmetricError(f"t_power requires a symmetric tensor: {reason}")
    w = x.spectra().values
    lam_max, min_eig = float(w.max()), float(w.min())
    clamp_floor = _POWER_TOL * max(lam_max, 0.0)
    if min_eig < -clamp_floor:
        raise NotTPSDError(
            f"t_power requires positive semidefiniteness: eigenvalue {min_eig:.6e} "
            f"below -{clamp_floor:.3e}"
        )
    if not np.isfinite(r):
        raise ValueError(f"t_power requires finite exponents, got {[r]}")
    return x.power(r).member(0)


def t_abs(a: Tensor3) -> Tensor3:
    """Absolute value (a^T * a)^(1/2) of an ``n1 x n2 x n3`` tensor: the
    symmetric positive semidefinite ``n2 x n2 x n3`` tensor of
    :meth:`ttensor.core._Stack.abs_power`."""
    return _Stack.of(a).abs_power(1.0).member(0)


def gen_orthogonal(n: int, n3: int, rng) -> Tensor3:
    """Random orthogonal tensor from slicewise QR of a random tensor.

    QR is taken on the half slices ``0..n3//2`` in one call, with the R
    diagonal phase-normalized to be positive (pins the factor uniquely),
    conjugate slices mirrored.
    """
    q, rr = np.linalg.qr(_Stack.of(gen_random((n, n, n3), rng)).half_slices())
    d = np.diagonal(rr, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return _Stack.from_halves(q * (d / np.abs(d))[..., None, :], n3).member(0)


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
    _require_tol(tol)
    u, rhs, lhs = _young_witness(_Stack.of(a), _Stack.of(b), [p], [q])
    return u.member(0), _psd_verdicts(rhs - lhs, tol)[0]


def _young_witness(a: _Stack, b: _Stack, p: list, q: list) -> tuple[_Stack, _Stack, _Stack]:
    """:func:`young_witness` of each member pair, member ``i`` at ``p[i]``,
    ``q[i]``: the witnesses ``U``, the right-hand sides ``|A|^p / p + |B|^q /
    q`` and the conjugated ``U^T |A B^T| U``, each as one stack.  The
    exponents are checked before the shapes."""
    for pi, qi in zip(p, q):
        _require_conjugate(pi, qi)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(
            f"young_witness needs equal square shapes, got {a.shape} and {b.shape}"
        )
    abs_a, abs_b, abs_ab = a.cat(b, a @ b.transpose()).abs_power([*p, *q, *[1.0] * len(a)]).split(3)
    rhs = abs_a * [1.0 / pi for pi in p] + abs_b * [1.0 / qi for qi in q]
    _solve_together(abs_ab, rhs)
    # U carries the right-hand side's eigenbasis onto that of |A B^T|, slice by
    # slice, so U^T |A B^T| U has |A B^T|'s eigenvalues in the right-hand side's basis
    u = abs_ab.align(rhs)
    return u, rhs, (u.transpose() @ abs_ab @ u).sym()


def _require_conjugate(p: float, q: float) -> None:
    """Require conjugate exponents: finite ``p, q > 1`` and ``1/p + 1/q = 1``
    within ``_CONJUGATE_TOL``, else :class:`HypothesisViolationError`.

    The one exponent check of the Young and Hoelder statements.  For the
    Hoelder bounds it also makes the tube-count prefactor
    ``n3^(1/(2p) + 1/(2q) - 1/2)`` identically 1, so they leave it out.
    """
    _require(
        1 < p < np.inf and 1 < q < np.inf and abs(1.0 / p + 1.0 / q - 1.0) <= _CONJUGATE_TOL,
        f"exponents p={p}, q={q} are not conjugate",
    )
