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

Large transforms run on two threads (:func:`_slicewise_einsum`).  When the
work ``b * n1 * n2 * n3**2`` is above ``_SPLIT_WORK``, the process may run
on two or more CPUs and the worker is idle, each of the three einsums is cut
in two blocks of the kernel's ``k`` rows, the output slice index, never
``t``, the index summed over.  The calling thread computes the first block, one persistent
worker thread the second, and the blocks are joined along the slice axis.
numpy's einsum releases the GIL in its loops, so the blocks run at once.
An output element depends only on its own kernel row, whose terms einsum
adds in the same ``t`` order whichever block the row sits in, so the
result is bit for bit the single einsum (the tests force the split on real
and complex forwards and inverses, ``n3`` 1 to 1023, and compare bytes).

* The threshold, ``2**21`` (1-3 ms of one einsum), was measured on the
  shared 2-core box by timing each direction split and whole, best of
  many runs, ``b * n1 * n2 * n3**2`` from ``2**15`` to ``2**26``.  The
  worker's round trip costs about 25 us.  With the other core idle the
  split ran 1.05-1.75x at ``2**20`` and 1.2-2.0x from ``2**21`` up; with
  it busy the split lost at every size, 0.4-0.98x below ``2**21`` and down
  to 0.88x above.  One-trial campaign windows at 3x3x128 stay below it
  (at most ``2**19.75``, ``minkowski``); with three trials a window,
  ``minkowski`` reaches ``2**21.3`` and splits.
* One worker, started on the first split and shared by every caller: a
  process holds at most one extra thread however many threads call in.  A
  split takes the worker only while it is idle (``_idle``, a lock tried
  without waiting); a caller that finds it busy computes its whole einsum
  itself, the same bytes.  When every caller queued its second block on
  the worker instead, the worker held half of all the work: four threads
  making the ``tube-algebra`` benchmark's calls at once ran 0.77x the calls
  per second of the single einsum, two threads 0.81x; taken only while
  idle, 0.97x for both (medians of three 10 s runs on the shared 2-core
  box).  A thread started per call ran as fast on ``tube-algebra`` and
  peaked at about the same RSS in one measurement (77.6-78.0 MB against
  77.3-77.4 MB), but peaked at 91 MB in another, and it adds a thread per
  concurrent caller.
* A forked child gets a new, unstarted worker (``os.register_at_fork``):
  the parent's worker thread does not exist there, so a job handed to the
  inherited one would never run.
* Once the interpreter starts shutting down, ``concurrent.futures`` takes
  no new jobs, so a transform in a thread that outlives the main thread or
  in an ``atexit`` handler computes its whole einsum on the calling thread.

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

import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

# Work ``b * n1 * n2 * n3**2`` of a transform above which its slices are
# computed in two blocks on two threads (measured: see the module docstring).
_SPLIT_WORK = 2**21

# Whether the process may run on two or more CPUs.
_SPLIT = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) >= 2


def _new_worker() -> None:
    """Make the one worker and the lock a split holds while it has the worker;
    ThreadPoolExecutor starts its thread on the first submit.  Run again in a
    forked child, which has no worker thread."""
    global _worker, _idle
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ttensor-dft")
    _idle = threading.Lock()


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


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
        return _slicewise_einsum("kt,bijt->bkij", dft_matrix(n3), data)
    kernel = _real_dft_kernel(n3)
    parts = _slicewise_einsum("tkc,bijt->bkijc", kernel, data)
    return np.ascontiguousarray(parts.view(complex)[..., 0])


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
    return (_slicewise_einsum("kt,bijt->bijk", dft_matrix(n3), tubes) / n3).real


def _slicewise_einsum(subscripts: str, kernel: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, kernel, operand)``, where ``k`` in
    ``subscripts`` is the slice index.

    Above ``_SPLIT_WORK``, on two or more CPUs and while no other split
    holds the worker, the worker computes the second block of the kernel's
    ``k`` rows while the caller computes the first, and the blocks are
    joined along the output's ``k`` axis: the same bytes (module docstring).
    """
    n3 = operand.shape[-1]  # t, as long as k
    if not _SPLIT or operand.size * n3 <= _SPLIT_WORK or not _idle.acquire(blocking=False):
        return np.einsum(subscripts, kernel, operand)
    try:
        inputs, output = subscripts.split("->")
        head, tail = np.split(kernel, [n3 // 2], axis=inputs.index("k"))
        try:
            second = _worker.submit(np.einsum, subscripts, tail, operand)
        except RuntimeError:  # the interpreter is shutting down
            return np.einsum(subscripts, kernel, operand)
        try:
            first = np.einsum(subscripts, head, operand)
        finally:
            rest = second.result()  # also when the first block raised
        return np.concatenate([first, rest], axis=output.index("k"))
    finally:
        _idle.release()


def fourier_frobenius_norm(s: FourierSlices) -> float:
    """Frobenius norm of the stacked Fourier slices."""
    return float(np.linalg.norm(s.slices))
