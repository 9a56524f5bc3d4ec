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
a leading trial axis (:class:`ttensor.core._Stack`): :func:`_t_power` is the
kernel of :meth:`_Stack.power` and :func:`_abs_power` that of
:meth:`_Stack.abs_power`, one stack at a time, each member at its own
exponent; :func:`t_power` and :func:`t_abs` are their one-member cases.  A
wave of stacks is powered in one application by powering their
:meth:`_Stack.cat`, which starts with the spectra that all of its parts
were asked for.  Each member's result is bit for bit its lone result: every
step acts on each slice alone, and each distinct exponent is applied as one
Python number.  Both kernels apply their exponents with
:func:`_clipped_power`, the one power loop, and build their tensors with
:func:`_hermitian_tensors`, the one tail.
:func:`_t_power` reads the spectra its stack keeps
(:meth:`ttensor.core._Stack.spectra`), and trusts its operand: a
certifier's hypothesis gate has checked its symmetry and semidefiniteness,
and :func:`t_power` checks its own argument.  :func:`_t_eigenvalues` is the
kernel of :meth:`ttensor.core._Stack.eigenvalues`, one stack at a time:
its symmetric members read the spectra the stack keeps, and the half
slices of the others take one general solver call.  Several stacks take
theirs from their :meth:`_Stack.cat`, as a wave is powered.
:func:`_young_witness` builds the witnesses of a stack of pairs in the
stack algebra: ``|A|^p``, ``|B|^q`` and ``|A B^T|`` are one
:meth:`_Stack.abs_power` of their ``cat``, the spectra of ``|A B^T|`` and
of the right-hand side take one Jacobi call, and the witness is
:meth:`ttensor.core._Stack.align` of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PREDICATE_TOL, LoewnerVerdict, _asymmetry, _psd_verdicts
from .core import Tensor3, _solve_together, _Stack, gen_random
from .eigensolvers import HermitianEigen, _herm_t, general_eig
from .errors import (
    NotSymmetricError,
    NotTPSDError,
    ShapeMismatchError,
    SingularTensorError,
    _require,
)
from .fourier import _half_size, to_fourier

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


def t_eigenvalues(a) -> TEigenSpectrum:
    """t-eigenvalues of a square (real or complex) tensor.

    Real symmetric input goes through the Hermitian solver (real spectrum);
    everything else through the general solver.  As a multiset the result
    equals the spectrum of the block-circulant unfolding.
    """
    if isinstance(a, Tensor3):
        return _Stack.of(a).eigenvalues()[0]
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"t-eigenvalues require a square tensor, got {a.shape}")
    values = general_eig(to_fourier(a).slices).ravel()
    return TEigenSpectrum(values, np.repeat(np.arange(a.n3), a.n1))


def _t_eigenvalues(x: _Stack) -> list[TEigenSpectrum]:
    """:func:`t_eigenvalues` of each member of ``x``: the kernel of
    :meth:`ttensor.core._Stack.eigenvalues`.  The members symmetric within
    ``PREDICATE_TOL`` read the stack's :meth:`~ttensor.core._Stack.spectra`;
    the half slices of the others take one general solver call, made only
    when there are any (a member's values do not depend on the rest of the
    stack)."""
    (n, m, n3), half = x.shape, _half_size(x.n3)
    if n != m:
        raise ShapeMismatchError(f"t-eigenvalues require a square tensor, got {x.shape}")
    symmetric = np.array([not reason for reason in _asymmetry(x, PREDICATE_TOL)])
    w = np.empty((len(x), half, n), dtype=complex)  # each member's half spectrum
    if symmetric.any():
        w[symmetric] = x.spectra().values.reshape(len(x), half, n)[symmetric]
    if not symmetric.all():
        w[~symmetric] = general_eig(x.half_slices()[~symmetric].reshape(-1, n, n)).reshape(-1, half, n)
    return [_mirrored_spectrum(wi, n3) for wi in w]


def _mirrored_spectrum(w: np.ndarray, n3: int) -> TEigenSpectrum:
    """All t-eigenvalues from those of the half spectrum, ``w[k]`` for slice
    ``k``: slice k, then its conjugate partner n3 - k when that is another
    slice."""
    k = np.arange(len(w))
    keep = np.stack([np.full(len(k), True), (0 < k) & (k < n3 - k)], axis=1)
    values = np.stack([w, w.conj()], axis=1)[keep].ravel()
    provenance = np.repeat(np.stack([k, n3 - k], axis=1)[keep], w.shape[1])
    return TEigenSpectrum(values, provenance)


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


def _t_power(x: _Stack, exponents: list) -> _Stack:
    """:func:`t_power` of each member of ``x``, member ``i`` at
    ``exponents[i]``: the kernel of :meth:`ttensor.core._Stack.power`.

    The members are symmetric and PSD, as a hypothesis gate has certified,
    and eigenvalues below zero are clipped.  The stack is decomposed through
    the spectra it keeps.
    """
    return _hermitian_tensors(_clipped_power(x.spectra(), exponents), x.n3)


def _abs_power(x: _Stack, exponents: list) -> _Stack:
    """``|x|^r = (x^T x)^(r/2)`` of each member of ``x``, member ``i`` at
    ``r = exponents[i]``: the kernel of :meth:`ttensor.core._Stack.abs_power`.

    Each half slice ``U diag(sigma) V^H`` takes one ``np.linalg.svd`` (LAPACK
    ``gesdd``, which keeps a real slice real), and its power is ``V
    diag(sigma^r) V^H``: ``|x|``'s eigendecomposition ``V diag(sigma) V^H``
    at the exponent ``r``.  The Gram ``x^T x`` is never formed, so the power
    keeps the condition of ``x``, not its square (Golub & Van Loan, *Matrix
    Computations*, 5.3; Higham, *Functions of Matrices*, ch. 8).  A slice
    with fewer rows than columns has zeros for the missing singular values.
    """
    _, sigma, vh = np.linalg.svd(x.half_slices().reshape(-1, *x.shape[:2]))
    sigma = np.pad(sigma, [(0, 0), (0, x.shape[1] - sigma.shape[1])])
    e = HermitianEigen(sigma, _herm_t(vh))  # sigma descending: the power reads no order
    return _hermitian_tensors(_clipped_power(e, exponents), x.n3)


def _clipped_power(e: HermitianEigen, exponents: list) -> np.ndarray:
    """``V clip(w)^r V^H`` per slice, each member's slices in turn, the
    slices of member ``i`` at ``exponents[i]``.

    Eigenvalues are clipped at 0 first, so ``0**r = 0`` for ``r > 0`` and
    ``w**0 = 1``.  Only a member at a negative exponent is checked, for
    strict definiteness, so the first that fails raises the error it raises
    alone.  Each distinct exponent is applied as one Python number: numpy's
    ``**`` takes its square and square-root fast paths only for a scalar
    exponent, and those round differently from the general power."""
    values = e.values.reshape(len(exponents), -1)
    for r, lam_max, min_eig in zip(exponents, values.max(axis=1).tolist(), values.min(axis=1).tolist()):
        if r < 0 and (lam_max <= 0.0 or min_eig < _POWER_TOL * lam_max):
            raise SingularTensorError(
                -1, np.inf,
                f"negative power needs strict definiteness: smallest eigenvalue {min_eig:.3e}",
            )
    w = np.clip(e.values, 0.0, None)
    row_exponent = np.repeat(np.asarray(exponents, dtype=float), len(w) // len(exponents))
    for r in dict.fromkeys(exponents):
        same = row_exponent == r
        w[same] = w[same] ** r
    return (e.vectors * w[:, None, :]) @ _herm_t(e.vectors)


def _hermitian_tensors(m: np.ndarray, n3: int) -> _Stack:
    """The stack whose members have the Hermitian parts of ``m`` as their
    half slices, ``n3 // 2 + 1`` of each member in turn: mirrored,
    inverted and symmetrized (which removes the transform roundoff)."""
    return _Stack.from_halves(0.5 * (m + _herm_t(m)), n3).sym()


def t_abs(a: Tensor3) -> Tensor3:
    """Absolute value (a^T * a)^(1/2); symmetric positive semidefinite."""
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"t_abs requires a square tensor, got {a.shape}")
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
