"""Block-circulant unfolding and DFT block diagonalization.

The transform pair moves tensors between the spatial domain and the complex
Fourier slices that block-diagonalize the block-circulant unfolding.  The
slices are held as one stacked ``(n3, n1, n2)`` array, so slicewise work
(products, inverses, eigendecompositions) is one array call over the stack.
The forward kernel is the dense DFT matrix ``F`` with
``omega = exp(-2*pi*i/n3)`` applied along tubes (unnormalized); the inverse
applies ``conj(F)`` and divides by ``n3``.  A dense kernel is deliberate:
tube counts stay desk-scale here, and the explicit matrix pins the
sign/normalization convention exactly.

One cached array per tube length backs both directions: ``F`` from
:func:`dft_matrix`, which is bitwise symmetric (its exponents come from the
symmetric ``outer(j, j)``).

* Forward, real tensor: a complex product ``F[k, t] * (a[t] + 0j)`` has
  parts ``round(F.real[k, t] * a[t])`` and ``round(F.imag[k, t] * a[t])``
  exactly, so the transform runs in real arithmetic.  The real kernel ``K``
  is ``F``'s own buffer read as ``(t, k, c)`` floats, ``c`` 0 for the real
  part and 1 for the imaginary part; by symmetry ``K[t, k, 0] =
  F.real[k, t]`` and ``K[t, k, 1] = F.imag[k, t]``.  One real
  ``einsum("tkc,ijt->kijc")`` then adds the same rounded products in ``t``
  order as the complex einsum did, and its output read as complex is the
  same slices, bit for bit (the tests pin this against the complex kernel
  for ``n3`` up to 1024, exact and signed zeros included), at a third of
  the time on long tubes.  A :class:`~ttensor.core.ComplexTensor3` keeps the
  complex kernel: its imaginary parts are not zero, so there is no real
  split with the same roundoff.
* Inverse: the slices are conjugated once into a tube-major ``(n1, n2, n3)``
  buffer, so the reduction over the slice index runs along contiguous
  memory, and contracted with ``F`` itself.  Per term
  ``Re(conj(F) * s) = Re(F * conj(s))`` exactly, numpy's einsum adds complex
  products one term at a time in ``t`` order for either layout, and the
  division by ``n3`` comes before taking the real part as it always did, so
  the result is bit for bit the slice-major ``conj(F)`` product (tested for
  ``n3`` up to 1024).

What breaks or slows this:

* A real kernel with ``t`` contiguous (``(k, c, t)`` in C order) sends
  einsum down its unrolled multi-accumulator loop, which adds the terms in
  another order: the result is *not* bit-identical.  ``K`` must keep ``t``
  as its outermost axis.
* Asking the real einsum for another output layout costs more than the
  whole transform: writing into ``out=bar.real`` of a complex array, passing
  ``order="C"`` or a C-ordered ``out=`` each made it 5-17x slower at
  3x3x128 and 8x8x1024.  einsum picks the output layout, and
  :class:`FourierSlices` makes the contiguous copy.
* Every cached kernel beside ``F`` costs another ``16 * n3**2`` bytes per
  tube length: the ``tube-algebra`` benchmark peaks at 138.7 MB with a
  cached ``conj(F)`` beside ``F`` and at 126.0 MB with ``F`` alone.  ``K``
  as a view of ``F`` costs nothing.

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


# Tube lengths whose dense kernel F stays cached, 16 * n3**2 bytes each; both
# directions and the real forward kernel share it, so the bound caps every
# resident kernel (a benchmark run uses <= 4 lengths).
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


def _real_dft_kernel(n: int) -> np.ndarray:
    """``K`` of shape ``(n, n, 2)``: ``K[t, k, 0] = F.real[k, t]`` and
    ``K[t, k, 1] = F.imag[k, t]``, a read-only view of the cached, symmetric
    ``F``.  ``t`` is outermost in memory, the layout that keeps einsum's sums
    in ``t`` order (see the module docstring).
    """
    return dft_matrix(n).view(float).reshape(n, n, 2)


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
    if isinstance(a, Tensor3):
        bar = np.einsum("tkc,ijt->kijc", _real_dft_kernel(n3), a.data).view(complex)[..., 0]
        return FourierSlices(n1, n2, n3, bar, True)
    return FourierSlices(n1, n2, n3, np.einsum("kt,ijt->kij", dft_matrix(n3), a.data), False)


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
    tubes = np.conjugate(s.slices.transpose(1, 2, 0), order="C")
    data = np.einsum("kt,ijt->ijk", dft_matrix(s.n3), tubes) / s.n3
    return Tensor3(data.real)


def fourier_frobenius_norm(s: FourierSlices) -> float:
    """Frobenius norm of the stacked Fourier slices."""
    return float(np.linalg.norm(s.slices))
