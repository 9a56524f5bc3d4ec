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

Both directions take stacks too: :func:`_forward` maps ``(b, n1, n2, n3)``
real tensors to ``(b, n3, n1, n2)`` slices with the einsum
``"tkc,bijt->bkijc"`` (complex tensors with ``"kt,bijt->bkij"`` over ``F``),
and :func:`_inverse` maps them back with ``"kt,bijt->bijk"``.  einsum adds
each member's terms in the same order whatever ``b`` is, so a member's
result is bit for bit its lone transform, and :func:`to_fourier` and :func:`from_fourier` are the ``b = 1``
case (bit-equal and as fast as the unstacked einsums at 8x8x1024, 8x8x512,
16x16x128 and 3x3x128; the complex einsum was checked on 2800 members with
``n`` up to 8, ``n3`` up to 128 and stacks of up to 64).  Every call
transforms afresh: nothing is cached but the kernel.

A real tensor's slices come in conjugate pairs, so slices ``0 .. n3//2`` (the
half spectrum, :meth:`FourierSlices.half`, :func:`_half_size` of them)
determine the rest; this module owns that convention, including which half
slices are their own conjugate and how a half spectrum is mirrored back into
a real tensor.

Only :func:`from_fourier` checks conjugate symmetry, for slices from outside
the program.  The slices the library inverts itself (products, inverses,
powers, witnesses) inherit the pairing from real factors or get it exactly
from :func:`_mirror_half`, so :func:`_inverse` takes them unchecked: a check
there rejected the inverse of an ill-conditioned tensor, whose slices
``inv`` returns with the transform's roundoff asymmetry amplified by the
slice condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Tensor3
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
        return self.slices[: _half_size(self.n3)]

    def symmetry_residual(self) -> float:
        """Largest deviation from the conjugate-symmetry pattern of a real tensor."""
        return _worst_symmetry_pair(self)[0]


def _half_size(n3: int) -> int:
    """The number of half-spectrum slices, ``0 .. n3//2``."""
    return n3 // 2 + 1


def _worst_symmetry_pair(s: FourierSlices) -> tuple[float, int, int]:
    """``(residual, i, j)`` of the pair furthest from ``slices[j] == conj(slices[i])``.

    Pairs are ``j = n3 - i`` for ``i = 1 .. n3//2``; slice 0 is paired with
    itself as ``(0, 0)`` and measured by its imaginary part.  The lowest
    index wins ties, and a NaN residual never counts as the worst.
    """
    sl, n3 = s.slices, s.n3
    i = np.arange(1, _half_size(n3))
    res = np.empty(_half_size(n3))
    res[0] = np.abs(sl[0].imag).max()
    res[1:] = np.abs(sl[n3 - i] - sl[i].conj()).max(axis=(1, 2))
    res = np.fmax(res, 0.0)
    k = int(np.argmax(res))
    return float(res[k]), k, (n3 - k) % n3


def _self_conjugate_indices(n3: int) -> list:
    """Half-spectrum slices that are their own conjugate, hence real for a
    real tensor: 0 and, for even n3, the middle slice n3//2."""
    return [0, n3 // 2] if n3 % 2 == 0 else [0]


def _mirror_half(half: np.ndarray, n3: int) -> np.ndarray:
    """All ``n3`` slices of each member of a ``(b, n3//2 + 1, n1, n2)`` stack
    of half spectra: slices 1..(n3-1)//2 mirrored as conjugates."""
    return np.concatenate([half, half[:, (n3 - 1) // 2:0:-1].conj()], axis=1)


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

# Relative conjugate-symmetry residual below which slices have a real preimage.
_SYMMETRY_TOL = 1e-9


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def dft_matrix(n: int) -> np.ndarray:
    """Unnormalized DFT matrix F with F[j, k] = omega^(j*k), omega = exp(-2*pi*i/n).

    The array is cached and shared, hence read-only.
    """
    j = np.arange(n)
    kernel = -2j * np.pi / n * np.outer(j, j)
    np.exp(kernel, out=kernel)  # in place: one complex n x n array at a time
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
    """
    n1, n2, n3 = a.shape
    return FourierSlices(n1, n2, n3, _forward(a.data[None])[0], isinstance(a, Tensor3))


def _forward(data: np.ndarray) -> np.ndarray:
    """Fourier slices ``(b, n3, n1, n2)`` of each member of a C-contiguous
    ``(b, n1, n2, n3)`` stack, C-contiguous for real data.  einsum adds each
    member's terms in ``t`` order whatever ``b`` is, so a member's slices are
    bit for bit its own transform."""
    n3 = data.shape[3]
    if np.iscomplexobj(data):
        return np.einsum("kt,bijt->bkij", dft_matrix(n3), data)
    kernel = _real_dft_kernel(n3)
    return np.ascontiguousarray(np.einsum("tkc,bijt->bkijc", kernel, data).view(complex)[..., 0])


def from_fourier(s: FourierSlices) -> Tensor3:
    """Inverse DFT along tubes back to a real tensor.

    The slices must satisfy the conjugate-symmetry pattern within
    ``_SYMMETRY_TOL * (1 + max slice magnitude)``; otherwise the data has no
    real preimage and :class:`ConjugateSymmetryError` reports the worst slice
    pair.
    """
    tol = _SYMMETRY_TOL * (1.0 + np.abs(s.slices).max())
    residual, i, j = _worst_symmetry_pair(s)
    if residual > tol:
        raise ConjugateSymmetryError(i, j, residual, float(tol))
    return Tensor3(_inverse(s.slices[None])[0])


def _inverse(slices: np.ndarray) -> np.ndarray:
    """Real ``(b, n1, n2, n3)`` preimage of each member of a ``(b, n3, n1, n2)``
    stack of conjugate-symmetric Fourier slices (unchecked: see the module
    docstring): the real part of the inverse transform."""
    n3 = slices.shape[1]
    tubes = np.conjugate(slices.transpose(0, 2, 3, 1), order="C")
    return (np.einsum("kt,bijt->bijk", dft_matrix(n3), tubes) / n3).real


def fourier_frobenius_norm(s: FourierSlices) -> float:
    """Frobenius norm of the stacked Fourier slices."""
    return float(np.linalg.norm(s.slices))
