"""Block-circulant unfolding and DFT block diagonalization.

The transform pair moves tensors between the spatial domain and the complex
Fourier slices that block-diagonalize the block-circulant unfolding.  The
slices are held as one stacked ``(n3, n1, n2)`` array, so slicewise work
(products, inverses, eigendecompositions) is one array call over the stack.
The forward kernel is the dense DFT matrix with ``omega = exp(-2*pi*i/n3)``
applied along tubes (unnormalized); the inverse divides by ``n3``.  A dense
kernel is deliberate: tube counts stay desk-scale here, and the explicit
matrix pins the sign/normalization convention exactly.  The inverse first
lays the slices out tube-major, ``(n1, n2, n3)``, so its reduction over the
slice index runs along contiguous memory.  Each output entry is still the
sum over ``t`` of the same products ``conj(F)[k, t] * slices[t, i, j]``, and
numpy's einsum accumulates complex products one term at a time in ``t``
order for either layout, so the result is bit for bit what the slice-major
product gives (the tests pin this for ``n3`` up to 1024); only the memory
walk is faster.

Inside a per-trial memo scope (:func:`ttensor.core._trial_memo`) both
directions return their stored result when exactly the same input comes
back.  :func:`to_fourier` keys by ``("fwd", type, shape, data bytes)``; the
type and shape are part of the key because a real ``(2, 2, 4)`` tensor and a
complex ``(2, 2, 2)`` one can hold equal bytes.  :func:`from_fourier` keys by
``("inv", (n1, n2, n3), tol_sym, slice bytes)``.  Stored results are
immutable (read-only arrays), and a :class:`ConjugateSymmetryError` is never
stored, so a repeat raises it again.  Outside a scope nothing is cached.

A real tensor's slices come in conjugate pairs, so slices ``0 .. n3//2`` (the
half spectrum, :meth:`FourierSlices.half`) determine the rest; this module
owns that convention, including which half slices are their own conjugate
and how a half spectrum is mirrored back into a real tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _MEMO, Tensor3
from .errors import ConjugateSymmetryError, ShapeMismatchError

__all__ = [
    "FourierSlices",
    "BlockCirculantMatrix",
    "dft_matrix",
    "bcirc",
    "unfold",
    "fold",
    "to_fourier",
    "from_fourier",
    "fourier_frobenius_norm",
]


@dataclass(frozen=True)
class FourierSlices:
    """The n3 complex Fourier slices of a tensor, stacked in one array.

    ``slices`` is a read-only C-contiguous complex128 array of shape
    ``(n3, n1, n2)``; slice ``k`` is ``slices[k]``.  Construction accepts a
    tuple, list or array of equally shaped slices and raises
    :class:`ShapeMismatchError` when they do not stack to that shape.

    ``origin_real`` records that the slices came from a real tensor, in which
    case slice ``n3 - i`` is the entrywise conjugate of slice ``i`` for
    i = 1..n3-1 (0-based) and slice 0 is real up to roundoff.
    """

    n1: int
    n2: int
    n3: int
    slices: np.ndarray
    origin_real: bool

    def __post_init__(self):
        try:
            stack = np.ascontiguousarray(self.slices, dtype=complex)
        except ValueError as exc:
            raise ShapeMismatchError(f"Fourier slices do not stack: {exc}") from None
        if stack.shape != (self.n3, self.n1, self.n2):
            raise ShapeMismatchError(
                f"Fourier slices stack to shape {stack.shape}, expected "
                f"(n3, n1, n2) = {(self.n3, self.n1, self.n2)}"
            )
        stack = stack.view()  # read-only without freezing the caller's array
        stack.flags.writeable = False
        object.__setattr__(self, "slices", stack)

    @classmethod
    def from_list(cls, slices, origin_real: bool) -> "FourierSlices":
        n1, n2 = np.shape(slices[0])
        return cls(n1, n2, len(slices), slices, origin_real)

    def half(self) -> np.ndarray:
        """Slices ``0 .. n3//2``: for real-origin data the rest are their conjugates."""
        return self.slices[: self.n3 // 2 + 1]

    def symmetry_residual(self) -> float:
        """Largest deviation from the conjugate-symmetry pattern of a real tensor."""
        return _worst_symmetry_pair(self)[0]


def _worst_symmetry_pair(s: FourierSlices) -> tuple[float, int, int]:
    """``(residual, i, j)`` of the pair furthest from ``slices[j] == conj(slices[i])``.

    Pairs are ``j = n3 - i`` for ``i = 1 .. n3//2``; slice 0 is paired with
    itself as ``(0, 0)`` and measured by its imaginary part.  The lowest
    index wins ties, and a NaN residual never counts as the worst.
    """
    sl = s.slices
    half = s.n3 // 2
    i = np.arange(1, half + 1)
    res = np.empty(half + 1)
    res[0] = np.abs(sl[0].imag).max()
    res[1:] = np.abs(sl[s.n3 - i] - sl[i].conj()).max(axis=(1, 2))
    res = np.fmax(res, 0.0)
    k = int(np.argmax(res))
    return float(res[k]), k, (s.n3 - k) % s.n3


def _self_conjugate_indices(n3: int) -> list:
    """Half-spectrum slices that are their own conjugate, hence real for a
    real tensor: 0 and, for even n3, the middle slice n3//2."""
    return [0, n3 // 2] if n3 % 2 == 0 else [0]


def _assemble_real_from_half(half, n3: int) -> Tensor3:
    """Mirror slices 1..(n3-1)//2 of a ``(n3//2 + 1, n1, n2)`` half spectrum
    as conjugates and inverse-transform."""
    full = np.concatenate([half, half[(n3 - 1) // 2:0:-1].conj()])
    return from_fourier(FourierSlices(half.shape[1], half.shape[2], n3, full, True))


@dataclass(frozen=True)
class BlockCirculantMatrix:
    """Dense block-circulant unfolding; block (r, c) is frontal slice (r - c) mod n3."""

    matrix: np.ndarray
    n1: int
    n2: int
    n3: int


# Tube lengths whose dense kernels stay cached; each costs 16 * n3**2 bytes per
# cache, so the bound caps the resident kernels (a benchmark run uses <= 4 lengths).
_KERNEL_CACHE_SIZE = 8


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def dft_matrix(n: int) -> np.ndarray:
    """Unnormalized DFT matrix F with F[j, k] = omega^(j*k), omega = exp(-2*pi*i/n).

    The array is cached and shared, hence read-only.
    """
    j = np.arange(n)
    kernel = np.exp(-2j * np.pi / n * np.outer(j, j))
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _inverse_dft_kernel(n: int) -> np.ndarray:
    """``conj(F)``; the inverse transform divides its product by ``n``."""
    kernel = dft_matrix(n).conj()
    kernel.flags.writeable = False
    return kernel


def bcirc(a) -> BlockCirculantMatrix:
    """Block-circulant matrix whose first block column stacks the frontal slices."""
    n1, n2, n3 = a.shape
    out = np.empty((n1 * n3, n2 * n3), dtype=a.data.dtype)
    for r in range(n3):
        for c in range(n3):
            out[r * n1:(r + 1) * n1, c * n2:(c + 1) * n2] = a.slice((r - c) % n3)
    return BlockCirculantMatrix(out, n1, n2, n3)


def unfold(a: Tensor3) -> np.ndarray:
    """Stack the frontal slices vertically into an (n1*n3, n2) matrix."""
    return a.data.transpose(2, 0, 1).reshape(a.n1 * a.n3, a.n2)


def fold(m, n1: int, n3: int) -> Tensor3:
    """Inverse of :func:`unfold`; requires exactly n1*n3 rows."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != n1 * n3:
        raise ShapeMismatchError(
            f"cannot fold shape {m.shape} into n1={n1}, n3={n3} slices"
        )
    return Tensor3(m.reshape(n3, n1, m.shape[1]).transpose(1, 2, 0))


def to_fourier(a) -> FourierSlices:
    """DFT along every tube; returns the n3 Fourier slices.

    Accepts real and complex tensors; ``origin_real`` is set for real input,
    and the output then carries the conjugate-symmetry pattern by construction.
    Inside a per-trial memo scope a repeated tensor returns the stored slices.
    """
    memo = _MEMO.get()
    if memo is None:
        return _to_fourier(a)
    key = ("fwd", type(a), a.shape, a.data.tobytes())
    s = memo.get(key)
    if s is None:
        s = memo[key] = _to_fourier(a)
    return s


def _to_fourier(a) -> FourierSlices:
    n1, n2, n3 = a.shape
    bar = np.einsum("kt,ijt->kij", dft_matrix(n3), a.data)
    return FourierSlices(n1, n2, n3, bar, isinstance(a, Tensor3))


def from_fourier(s: FourierSlices, tol_sym: float = 1e-9) -> Tensor3:
    """Inverse DFT along tubes back to a real tensor.

    The slices must satisfy the conjugate-symmetry pattern within
    ``tol_sym * (1 + max slice magnitude)``; otherwise the data has no real
    preimage and :class:`ConjugateSymmetryError` reports the worst slice pair.
    Inside a per-trial memo scope repeated slices return the stored tensor.
    """
    memo = _MEMO.get()
    if memo is None:
        return _from_fourier(s, tol_sym)
    key = ("inv", (s.n1, s.n2, s.n3), tol_sym, s.slices.tobytes())
    a = memo.get(key)
    if a is None:
        a = memo[key] = _from_fourier(s, tol_sym)
    return a


def _from_fourier(s: FourierSlices, tol_sym: float) -> Tensor3:
    tol = tol_sym * (1.0 + float(np.abs(s.slices).max()))
    residual, i, j = _worst_symmetry_pair(s)
    if residual > tol:
        raise ConjugateSymmetryError(i, j, residual, tol)
    tubes = np.ascontiguousarray(s.slices.transpose(1, 2, 0))
    data = np.einsum("kt,ijt->ijk", _inverse_dft_kernel(s.n3), tubes) / s.n3
    return Tensor3(data.real)


def fourier_frobenius_norm(s: FourierSlices) -> float:
    """Frobenius norm of the stacked Fourier slices."""
    return float(np.linalg.norm(s.slices))
