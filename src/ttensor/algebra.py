"""The t-product and its algebraic superstructure.

Multiplication and inversion run slicewise in the Fourier domain, each as one
array call over the stacked slices; the block-circulant route
``fold(bcirc(a) @ unfold(b))`` is equivalent and is kept as a test oracle
only.  The positive-semidefinite order on symmetric tensors is decided per
Fourier slice: a symmetric tensor is t-PSD exactly when every
(Hermitian-symmetrized) Fourier slice is positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tensor3, frobenius_norm, identity, transpose
from .errors import NotSymmetricError, ShapeMismatchError, SingularTensorError
from .eigensolvers import hermitian_eig
from .fourier import FourierSlices, from_fourier, to_fourier

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
INVERSE_TOL = 1e-12


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
    """t-product of compatible tensors via slicewise Fourier multiplication."""
    if a.n2 != b.n1 or a.n3 != b.n3:
        raise ShapeMismatchError(
            f"cannot multiply {a.shape} by {b.shape}: need a.n2 == b.n1 and equal n3"
        )
    product = to_fourier(a).slices @ to_fourier(b).slices
    return from_fourier(FourierSlices(a.n1, b.n2, a.n3, product, True))


def t_inverse(a: Tensor3) -> Tensor3:
    """Multiplicative inverse, computed by slicewise inversion.

    Every Fourier slice must be invertible: its smallest singular value must
    exceed ``INVERSE_TOL`` times its largest.  Otherwise the worst slice index
    and its condition estimate are reported.
    """
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"inverse requires a square tensor, got {a.shape}")
    slices = to_fourier(a).slices
    sv = np.linalg.svd(slices, compute_uv=False)
    ratio = np.zeros(a.n3)  # sigma_min / sigma_max per slice; 0 for an all-zero slice
    np.divide(sv[:, -1], sv[:, 0], out=ratio, where=sv[:, 0] > 0)
    worst = int(np.argmin(ratio))
    if ratio[worst] <= INVERSE_TOL:
        cond = 1.0 / ratio[worst] if ratio[worst] > 0 else np.inf
        raise SingularTensorError(worst, float(cond))
    return from_fourier(FourierSlices(a.n1, a.n2, a.n3, np.linalg.inv(slices), True))


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def _require_square(a) -> PredicateVerdict | None:
    if a.n1 != a.n2:
        return PredicateVerdict(False, f"not square: {a.shape}")
    return None

def is_symmetric(a: Tensor3, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """a == transpose(a) within ``tol * (1 + ||a||_F)``."""
    bad = _require_square(a)
    if bad is not None:
        return bad
    residual = frobenius_norm(a - transpose(a))
    if residual > tol * (1.0 + frobenius_norm(a)):
        return PredicateVerdict(False, f"symmetry residual {residual:.3e}")
    return PredicateVerdict(True)


def is_orthogonal(q: Tensor3, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """Both q^T * q and q * q^T equal the identity within ``tol``."""
    bad = _require_square(q)
    if bad is not None:
        return bad
    eye = identity(q.n1, q.n3)
    r1 = frobenius_norm(t_product(transpose(q), q) - eye)
    r2 = frobenius_norm(t_product(q, transpose(q)) - eye)
    if max(r1, r2) > tol:
        return PredicateVerdict(False, f"orthogonality residual {max(r1, r2):.3e}")
    return PredicateVerdict(True)


def is_normal(a: Tensor3, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """a^T * a == a * a^T within ``tol * (1 + ||a||_F^2)``."""
    bad = _require_square(a)
    if bad is not None:
        return bad
    at = transpose(a)
    residual = frobenius_norm(t_product(at, a) - t_product(a, at))
    if residual > tol * (1.0 + frobenius_norm(a) ** 2):
        return PredicateVerdict(False, f"normality residual {residual:.3e}")
    return PredicateVerdict(True)


def is_f_diagonal(a, tol: float = PREDICATE_TOL) -> PredicateVerdict:
    """Every frontal slice is diagonal within ``tol * (1 + ||a||_F)``."""
    mask = ~np.eye(a.n1, a.n2, dtype=bool)[:, :, None]
    off = float(np.linalg.norm(np.broadcast_to(mask, a.shape) * a.data))
    if off > tol * (1.0 + frobenius_norm(a)):
        return PredicateVerdict(False, f"off-diagonal mass {off:.3e}")
    return PredicateVerdict(True)


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
    sym = is_symmetric(a, tol)
    if not sym:
        raise NotSymmetricError(f"is_t_psd requires a symmetric tensor: {sym.reason}")
    min_eig, scale = _slice_eig_extremes(a)
    tolerance = tol * (1.0 + scale)
    return LoewnerVerdict(bool(min_eig >= -tolerance), float(min_eig), tolerance)


def _slice_eig_extremes(a: Tensor3) -> tuple[float, float]:
    """``(smallest eigenvalue, largest eigenvalue magnitude)`` over the
    Hermitian-symmetrized Fourier slices of ``a``.

    Conjugate slices share a spectrum, so only slices ``0..n3//2`` are
    decomposed, in one stacked solver call.  This is the one min-gap routine;
    its callers keep their own tolerance scales, which are deliberately not
    reconciled because moving either can flip verdicts that sit near the band
    edge:

    * :func:`is_t_psd` accepts ``min >= -tol * (1 + max |eig|)``, using the
      magnitude returned here for the tensor under test;
    * :func:`ttensor.certificates.loewner_certificate` passes ``rhs - lhs``
      through :func:`ttensor.certificates.loewner_min_gap` and accepts
      ``gap >= -tol * (1 + ||R||_2)``, scaled by the spectral norm of the
      right-hand side ``R`` instead.
    """
    w = hermitian_eig(_psd_stack(a)).values
    return float(w[:, 0].min()), float(np.abs(w).max())


def _psd_stack(a: Tensor3) -> np.ndarray:
    """Hermitian-symmetrized Fourier slices ``0..n3//2`` of ``a``: the stack
    whose spectra :func:`_slice_eig_extremes` (hence :func:`is_t_psd` and
    every Loewner certificate) and the symmetric branch of
    :func:`ttensor.spectral.t_eigenvalues` take."""
    half = to_fourier(a).half()
    return 0.5 * (half + half.conj().transpose(0, 2, 1))


def loewner_ge(a: Tensor3, b: Tensor3, tol: float = PREDICATE_TOL) -> LoewnerVerdict:
    """Verdict for a >= b in the positive semidefinite order: a - b is t-PSD."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"order comparison needs equal shapes: {a.shape} vs {b.shape}")
    return is_t_psd(a - b, tol)
