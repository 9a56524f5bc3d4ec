"""The t-product and its algebraic superstructure.

Multiplication and inversion run slicewise in the Fourier domain, each as one
array call over the stacked slices; the block-circulant route
``fold(bcirc(a) @ unfold(b))`` is equivalent and is kept as a test oracle
only.  The inverse checks and inverts the half slices (``0..n3//2``) only,
whose conjugates are the rest; orthogonality and normality are decided per
half slice too (:meth:`ttensor.core._Stack.gram_residuals`), since a real
tensor is orthogonal or normal exactly when each Fourier slice is unitary
or normal.  The positive-semidefinite order on symmetric tensors is
decided per Fourier slice: a symmetric tensor is t-PSD exactly when every
(Hermitian-symmetrized) Fourier slice is positive semidefinite.

The product is the stacks' ``x @ y`` (:class:`ttensor.core._Stack`), and
the inverse is the stack's :meth:`~ttensor.core._Stack.inverse`, which the
stack keeps, and stores by content, like its other quantities.  They, the
structural predicates and the PSD verdicts take stacks of
tensors along a leading trial axis: :meth:`_Stack.inverse`, :func:`_asymmetry`,
:func:`_orthogonality`, :func:`_normality`, :func:`_off_diagonality` and
:func:`_psd_verdicts`, with :func:`t_product`, :func:`t_inverse`,
:func:`is_symmetric`, :func:`is_orthogonal`, :func:`is_normal`,
:func:`is_f_diagonal` and :func:`is_t_psd` their one-member case.  The
gates (:func:`_asymmetry`, :func:`_orthogonality`, :func:`_normality`,
:func:`_require_symmetric`, :func:`_require_psd` and :func:`_psd_verdicts`)
call only the stack methods, so they run on any stack type; a PSD check
reads the min gaps of :meth:`_Stack.extremes`, whose spectra a float stack
keeps, perhaps solved with other stacks.  The gate compares the numbers;
only the public :func:`is_t_psd` and :func:`ttensor.spectral.young_witness`
make :class:`LoewnerVerdict` objects, through :func:`_psd_verdicts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tensor3, _frobenius, _solve_together, _Stack
from .errors import NotSymmetricError, _require, _require_each, _require_tol

__all__ = [
    "LoewnerVerdict",
    "PredicateVerdict",
    "t_product",
    "t_inverse",
    "is_symmetric",
    "is_orthogonal",
    "is_normal",
    "is_f_diagonal",
    "is_t_psd",
    "loewner_ge",
]

PREDICATE_TOL = 1e-9


def _hypothesis_tol(tol: float) -> float:
    """The tolerance of every structural hypothesis of a certifier
    (orthogonal, normal, symmetric, f-diagonal, commuting,
    ``a = q^-1 * s * q``): ``tol``, floored at ``PREDICATE_TOL``."""
    return max(tol, PREDICATE_TOL)


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a positive-semidefiniteness or order check.

    ``min_gap_eigenvalue`` is the smallest eigenvalue over all Fourier slices
    of the tensor under test; ``holds`` iff it is at least
    ``-tolerance_used``.
    """

    holds: bool
    min_gap_eigenvalue: float
    tolerance_used: float


@dataclass(frozen=True)
class PredicateVerdict:
    """Boolean predicate outcome carrying a reason when it fails."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def t_product(a: Tensor3, b: Tensor3) -> Tensor3:
    """t-product of compatible tensors via slicewise Fourier multiplication:
    ``x @ y`` of the stacks the operands keep, so each operand is
    transformed once however many calls it takes part in."""
    return (_Stack.of(a) @ _Stack.of(b)).member(0)


def t_inverse(a: Tensor3) -> Tensor3:
    """Multiplicative inverse, computed by slicewise inversion.

    Every Fourier slice must be invertible: its smallest singular value must
    exceed ``INVERSE_TOL`` times its largest.  Slices ``n3 - k`` and ``k``
    are conjugates, so only the half slices ``0..n3//2`` are checked, and
    otherwise :class:`SingularTensorError` reports the worst half-slice
    index and its condition estimate; it is the only failure a slice can
    cause, however ill-conditioned the invertible slices are.  The tensor's
    stack keeps the inverse (:meth:`ttensor.core._Stack.inverse`), so a
    tensor is inverted once however often it is inverted.
    """
    return _Stack.of(a).inverse().member(0)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_symmetric(a: Tensor3, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """a == transpose(a) within ``tol * (1 + ||a||_F)``."""
    _require_tol(tol)
    reason = _asymmetry(_Stack.of(a), tol)[0]
    return PredicateVerdict(not reason, reason)


def _asymmetry(x: _Stack, tol: float) -> list[str]:
    """Why each member fails :func:`is_symmetric`, or ``""`` if it passes."""
    if x.shape[0] != x.shape[1]:
        return [f"not square: {x.shape}"] * len(x)
    residual = (x - x.transpose()).frobenius()
    bound = [tol * (1.0 + f) for f in x.frobenius()]
    return [f"symmetry residual {r:.3e}" if r > b else "" for r, b in zip(residual, bound)]


def _require_symmetric(tol: float, **stacks: _Stack) -> None:
    """Every member of each named stack, in order, is symmetric within
    ``_hypothesis_tol(tol)``, else a hypothesis violation naming the stack and its residual."""
    for name, x in stacks.items():
        _require_each(_asymmetry(x, _hypothesis_tol(tol)), f"{name} is not symmetric: {{}}")


def is_orthogonal(q: Tensor3, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """Both q^T * q and q * q^T equal the identity within ``tol``."""
    _require_tol(tol)
    reason = _orthogonality(_Stack.of(q), tol)[0]
    return PredicateVerdict(not reason, reason)


def _orthogonality(x: _Stack, tol: float) -> list[str]:
    """Why each member fails :func:`is_orthogonal`, or ``""`` if it passes."""
    if x.shape[0] != x.shape[1]:
        return [f"not square: {x.shape}"] * len(x)
    left, right, _ = x.gram_residuals()
    return [
        f"orthogonality residual {max(a, b):.3e}" if max(a, b) > tol else ""
        for a, b in zip(left, right)
    ]


def is_normal(a: Tensor3, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """a^T * a == a * a^T within ``tol * (1 + ||a||_F^2)``."""
    _require_tol(tol)
    reason = _normality(_Stack.of(a), tol)[0]
    return PredicateVerdict(not reason, reason)


def _normality(x: _Stack, tol: float) -> list[str]:
    """Why each member fails :func:`is_normal`, or ``""`` if it passes.

    A member whose residual or bound is not finite (its Grams or its squared
    norm leave the float range) is measured again times the power of two
    ``2**-e`` that brings its norm into ``[0.5, 1)``, as :func:`_frobenius`
    sums again: exact, and both sides of the test scale by ``4**-e``.  Every
    other member keeps the plain measure's bits."""
    if x.shape[0] != x.shape[1]:
        return [f"not square: {x.shape}"] * len(x)
    with np.errstate(over="ignore", invalid="ignore"):  # Grams past the float range read inf or NaN
        residual, norms = x.gram_residuals()[2], x.frobenius()
        finite = [math.isfinite(r + _normal_bound(tol, f, 0)) for r, f in zip(residual, norms)]
        exponents = [0 if ok else math.frexp(f)[1] for ok, f in zip(finite, norms)]
        if any(exponents):  # the other members are measured again times 1, to the same bits
            y = x * [math.ldexp(1.0, -e) for e in exponents]
            residual, norms = y.gram_residuals()[2], y.frobenius()
        return [
            f"normality residual {float(np.ldexp(r, 2 * e)):.3e}" if r > _normal_bound(tol, f, e) else ""
            for r, f, e in zip(residual, norms, exponents)
        ]


def _normal_bound(tol: float, f: float, e: int) -> float:
    """``tol * (4**-e + f ** 2)``, infinite where ``f ** 2`` overflows."""
    try:
        return tol * (math.ldexp(1.0, -2 * e) + f ** 2)
    except OverflowError:
        return math.inf


def is_f_diagonal(a, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """Every frontal slice is diagonal within ``tol * (1 + ||a||_F)``."""
    _require_tol(tol)
    reason = _off_diagonality(a.data[None], tol)[0]
    return PredicateVerdict(not reason, reason)


def _off_diagonality(d: np.ndarray, tol: float) -> list[str]:
    """Why each member of the real or complex ``(b, n1, n2, n3)`` data
    fails :func:`is_f_diagonal`, or ``""`` if it passes."""
    off = _frobenius(d * ~np.eye(*d.shape[1:3], dtype=bool)[:, :, None]).tolist()
    bound = (tol * (1.0 + _frobenius(d))).tolist()
    return [f"off-diagonal mass {m:.3e}" if m > b else "" for m, b in zip(off, bound)]


# ---------------------------------------------------------------------------
# the positive semidefinite order
# ---------------------------------------------------------------------------

def is_t_psd(a: Tensor3, tol: float = PREDICATE_TOL) -> LoewnerVerdict:
    """Positive-semidefiniteness verdict for a symmetric tensor.

    Each Fourier slice is Hermitian-symmetrized (the discarded skew part is
    covered by the symmetry precondition), its spectrum computed, and the
    verdict holds iff the smallest eigenvalue over all slices is at least
    ``-tol * (1 + largest eigenvalue magnitude)``.
    """
    _require_tol(tol)
    x = _Stack.of(a)
    reason = _asymmetry(x, tol)[0]
    if reason:
        raise NotSymmetricError(f"is_t_psd requires a symmetric tensor: {reason}")
    return _psd_verdicts(x, tol)[0]


def _psd_verdicts(x: _Stack, tol: float) -> list[LoewnerVerdict]:
    """:func:`is_t_psd` of each member, whose symmetry the caller has
    checked: the verdicts of the public :func:`is_t_psd` and
    :func:`ttensor.spectral.young_witness`."""
    mins, scales = x.extremes()
    tolerances = [tol * (1.0 + scale) for scale in scales]
    return [LoewnerVerdict(bool(m >= -t), m, t) for m, t in zip(mins, tolerances)]


def _require_psd(tol: float, **stacks: _Stack) -> None:
    """Every named stack is symmetric (:func:`_require_symmetric`), and then
    each member, in order, is PSD as :func:`is_t_psd` decides at ``tol``, else
    a hypothesis violation naming the stack.  The stacks' spectra take one
    solver call (:func:`ttensor.core._solve_together`)."""
    _require_symmetric(tol, **stacks)
    _solve_together(*stacks.values())
    for name, x in stacks.items():
        for gap, scale in zip(*x.extremes()):
            _require(gap >= -tol * (1.0 + scale), f"{name} is not positive semidefinite (min gap {gap:.3e})")


def loewner_ge(a: Tensor3, b: Tensor3, tol: float = PREDICATE_TOL) -> LoewnerVerdict:
    """Verdict for a >= b in the positive semidefinite order: a - b is t-PSD."""
    _require_tol(tol)
    return is_t_psd(a - b, tol)
